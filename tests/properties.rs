//! Property-based integration tests (proptest): the engine's delivery
//! semantics hold for arbitrary workloads under every strategy, and the
//! wire codecs round-trip arbitrary content.

use bytes::Bytes;
use newmadeleine::core::prelude::*;
use newmadeleine::core::wire::{parse_frame, Entry, FrameBuilder, FrameEncoder};
use newmadeleine::core::SeqNo;
use newmadeleine::core::Strategy;
use newmadeleine::net::sim::SimDriver;
use newmadeleine::net::Driver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig};
use proptest::prelude::*;
use std::ops::ControlFlow;

type MkStrategy = fn() -> Box<dyn Strategy>;

fn strategies() -> Vec<(&'static str, MkStrategy)> {
    vec![
        ("default", || Box::new(StratDefault)),
        ("aggreg", || Box::new(StratAggreg)),
        ("reorder", || Box::new(StratReorder)),
        ("multirail", || Box::new(StratMultirail::default())),
        ("lanes", || Box::new(StratLanes::new())),
    ]
}

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

/// One submitted segment: flow tag, size class.
#[derive(Clone, Debug)]
struct Seg {
    tag: u32,
    len: usize,
}

fn seg_strategy() -> impl proptest::strategy::Strategy<Value = Seg> {
    use proptest::strategy::Strategy as _;
    (0u32..4, prop_oneof![0usize..200, 30_000usize..90_000]).prop_map(|(tag, len)| Seg { tag, len })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever the strategy does on the wire (aggregate, reorder,
    /// split), every flow delivers exactly the submitted bytes in
    /// submission order.
    #[test]
    fn delivery_is_exact_under_every_strategy(segs in proptest::collection::vec(seg_strategy(), 1..12)) {
        for (name, mk) in strategies() {
            let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
            let mut a = engine(&world, 0, mk());
            let mut b = engine(&world, 1, mk());
            let mut expected: std::collections::HashMap<u32, Vec<Vec<u8>>> = Default::default();
            let mut sends = Vec::new();
            for (i, seg) in segs.iter().enumerate() {
                let body: Vec<u8> = (0..seg.len).map(|j| ((i * 31 + j) % 251) as u8).collect();
                expected.entry(seg.tag).or_default().push(body.clone());
                sends.push(a.isend(NodeId(1), Tag(seg.tag), body));
            }
            let mut recvs: Vec<(u32, usize, newmadeleine::core::RecvReqId)> = Vec::new();
            for seg in &segs {
                let idx = recvs.iter().filter(|(t, _, _)| *t == seg.tag).count();
                recvs.push((seg.tag, idx, b.post_recv(NodeId(0), Tag(seg.tag), seg.len)));
            }
            // Pump to completion.
            run_until(&world, || {
                let moved = a.progress() | b.progress();
                let all = sends.iter().all(|&s| a.is_send_done(s))
                    && recvs.iter().all(|&(_, _, r)| b.is_recv_done(r));
                if all { ControlFlow::Break(()) } else { ControlFlow::Continue(moved) }
            })
            .unwrap_or_else(|e| panic!("under {name}: {e}"));
            for (tag, idx, r) in recvs {
                let done = b.try_take_recv(r).expect("completed");
                prop_assert_eq!(
                    &done.data,
                    &expected[&tag][idx],
                    "strategy {} flow {} item {}", name, tag, idx
                );
            }
        }
    }

    /// The engine wire codec round-trips arbitrary entry sequences.
    #[test]
    fn wire_frames_roundtrip(
        entries in proptest::collection::vec(
            (0u32..1000, 0u32..1000, proptest::collection::vec(any::<u8>(), 0..300), 0u8..4),
            0..20
        )
    ) {
        let mut fb = FrameBuilder::new();
        for (tag, seq, payload, kind) in &entries {
            match kind {
                0 => fb.push_data_lane(Tag(*tag), SeqNo(*seq), (*tag % 4) as u8, payload),
                1 => fb.push_rts_lane(Tag(*tag), SeqNo(*seq), (*tag % 4) as u8, payload.len() as u32),
                2 => fb.push_cts(Tag(*tag), SeqNo(*seq), payload.len() as u32),
                _ => fb.push_rdv_data(Tag(*tag), SeqNo(*seq), *seq, *seq % 2 == 0, payload),
            }
        }
        let frame = fb.finish();
        let parsed = parse_frame(&frame).expect("self-built frame parses");
        prop_assert_eq!(parsed.len(), entries.len());
        for (entry, (tag, seq, payload, kind)) in parsed.iter().zip(&entries) {
            match (entry, kind) {
                (Entry::Data { tag: t, seq: s, lane, payload: p }, 0) => {
                    prop_assert_eq!(t.0, *tag);
                    prop_assert_eq!(s.0, *seq);
                    prop_assert_eq!(*lane, (*tag % 4) as u8);
                    prop_assert_eq!(*p, payload.as_slice());
                }
                (Entry::Rts { total, lane, .. }, 1) => {
                    prop_assert_eq!(*total as usize, payload.len());
                    prop_assert_eq!(*lane, (*tag % 4) as u8);
                }
                (Entry::Cts { total, .. }, 2) => {
                    prop_assert_eq!(*total as usize, payload.len());
                }
                (Entry::RdvData { offset, payload: p, .. }, _) => {
                    prop_assert_eq!(*offset, *seq);
                    prop_assert_eq!(*p, payload.as_slice());
                }
                other => prop_assert!(false, "kind mismatch {:?}", other),
            }
        }
    }

    /// The gather encoder is bit-identical to the staged builder: for
    /// any entry sequence, concatenating [`FrameEncoder`]'s iov
    /// segments yields exactly the bytes [`FrameBuilder`] produces,
    /// `stage_into` produces the same bytes again, and the result
    /// parses back to the same entries (paper §4: gather vs staging
    /// copy must be a pure transport decision, invisible on the wire).
    #[test]
    fn gather_iov_is_bit_identical_to_staged_frame(
        entries in proptest::collection::vec(
            (0u32..1000, 0u32..1000, proptest::collection::vec(any::<u8>(), 0..300), 0u8..4),
            0..20
        )
    ) {
        let mut fb = FrameBuilder::new();
        let mut fe = FrameEncoder::new();
        for (tag, seq, payload, kind) in &entries {
            match kind {
                0 => {
                    fb.push_data(Tag(*tag), SeqNo(*seq), payload);
                    fe.push_data(Tag(*tag), SeqNo(*seq), payload);
                }
                1 => {
                    fb.push_rts(Tag(*tag), SeqNo(*seq), payload.len() as u32);
                    fe.push_rts(Tag(*tag), SeqNo(*seq), payload.len() as u32);
                }
                2 => {
                    fb.push_cts(Tag(*tag), SeqNo(*seq), payload.len() as u32);
                    fe.push_cts(Tag(*tag), SeqNo(*seq), payload.len() as u32);
                }
                _ => {
                    fb.push_rdv_data(Tag(*tag), SeqNo(*seq), *seq, *seq % 2 == 0, payload);
                    fe.push_rdv_data(Tag(*tag), SeqNo(*seq), *seq, *seq % 2 == 0, payload);
                }
            }
        }
        prop_assert_eq!(fb.len(), fe.wire_len());
        let staged_by_builder = fb.finish();
        let iov = fe.finish();
        let segs = iov.segments();
        prop_assert_eq!(segs.len(), iov.segment_count());
        let gathered: Vec<u8> = segs.concat();
        prop_assert_eq!(&gathered, &staged_by_builder, "gather iov differs from builder bytes");
        let mut staged_by_iov = vec![0xAAu8; 7]; // dirty pooled buffer
        iov.stage_into(&mut staged_by_iov);
        prop_assert_eq!(&staged_by_iov, &staged_by_builder, "staged copy differs from builder bytes");
        let parsed = parse_frame(&gathered).expect("gather-built frame parses");
        prop_assert_eq!(parsed.len(), entries.len());
    }

    /// Every strict prefix of a valid frame is rejected with an error:
    /// the count header promises entries the truncated bytes cannot
    /// hold, so `parse_frame` must return `Err`, never deliver a
    /// partial parse and never panic.
    #[test]
    fn truncated_frames_are_rejected_not_panicked(
        entries in proptest::collection::vec(
            (0u32..1000, 0u32..1000, proptest::collection::vec(any::<u8>(), 0..200), 0u8..4),
            1..10
        ),
        cut_sel in 0u32..10_000
    ) {
        let mut fb = FrameBuilder::new();
        for (tag, seq, payload, kind) in &entries {
            match kind {
                0 => fb.push_data(Tag(*tag), SeqNo(*seq), payload),
                1 => fb.push_rts(Tag(*tag), SeqNo(*seq), payload.len() as u32),
                2 => fb.push_cts(Tag(*tag), SeqNo(*seq), payload.len() as u32),
                _ => fb.push_rdv_data(Tag(*tag), SeqNo(*seq), *seq, *seq % 2 == 0, payload),
            }
        }
        let frame = fb.finish();
        // Any strict prefix, from the empty slice to one byte short.
        let cut = (frame.len() * cut_sel as usize) / 10_000;
        prop_assert!(cut < frame.len());
        prop_assert!(
            parse_frame(&frame[..cut]).is_err(),
            "truncation to {} of {} bytes must be rejected", cut, frame.len()
        );
    }

    /// A single flipped bit anywhere in a frame never panics the
    /// parser: it either still parses (the flip landed in payload
    /// bytes) or returns a structured error.
    #[test]
    fn bit_flipped_frames_never_panic_the_parser(
        entries in proptest::collection::vec(
            (0u32..1000, 0u32..1000, proptest::collection::vec(any::<u8>(), 0..200), 0u8..4),
            0..10
        ),
        pos_sel in 0u32..10_000,
        bit in 0u8..8
    ) {
        let mut fb = FrameBuilder::new();
        for (tag, seq, payload, kind) in &entries {
            match kind {
                0 => fb.push_data(Tag(*tag), SeqNo(*seq), payload),
                1 => fb.push_rts(Tag(*tag), SeqNo(*seq), payload.len() as u32),
                2 => fb.push_cts(Tag(*tag), SeqNo(*seq), payload.len() as u32),
                _ => fb.push_rdv_data(Tag(*tag), SeqNo(*seq), *seq, *seq % 2 == 0, payload),
            }
        }
        let mut frame = fb.finish();
        let pos = (frame.len() * pos_sel as usize) / 10_000;
        frame[pos] ^= 1 << bit;
        // Must not panic; Ok or Err are both acceptable outcomes.
        let _ = parse_frame(&frame);
    }

    /// Baseline codec round-trips arbitrary payloads.
    #[test]
    fn baseline_codec_roundtrips(tag in any::<u32>(), seq in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..500)) {
        use newmadeleine::baseline::codec::{decode, Msg};
        let msg = Msg::Eager { tag: Tag(tag), seq: SeqNo(seq), payload: &payload };
        let wire = msg.encode();
        prop_assert_eq!(decode(&wire).expect("valid"), msg);
    }

    /// Datatype pack → unpack is identity on the blocks and zero on
    /// the gaps, for arbitrary non-overlapping layouts.
    #[test]
    fn datatype_pack_unpack_identity(raw_blocks in proptest::collection::vec((0usize..64, 1usize..64), 0..10)) {
        use newmadeleine::mpi::Datatype;
        // Make blocks disjoint by accumulating offsets.
        let mut blocks = Vec::new();
        let mut at = 0usize;
        for (gap, len) in raw_blocks {
            at += gap;
            blocks.push((at, len));
            at += len;
        }
        let dtype = Datatype::indexed(blocks).expect("disjoint by construction");
        let src: Vec<u8> = (0..dtype.extent()).map(|i| (i % 255) as u8 | 1).collect();
        let packed = dtype.pack(&src);
        prop_assert_eq!(packed.len(), dtype.total_bytes());
        let back = dtype.unpack(&packed);
        let mut covered = vec![false; dtype.extent()];
        for &(offset, len) in dtype.blocks() {
            prop_assert_eq!(&back[offset..offset + len], &src[offset..offset + len]);
            for c in &mut covered[offset..offset + len] { *c = true; }
        }
        for (i, c) in covered.iter().enumerate() {
            if !c {
                prop_assert_eq!(back[i], 0, "gap byte {} must be zero", i);
            }
        }
    }

    /// Rendezvous chunking covers segments exactly once whatever the
    /// chunk size.
    #[test]
    fn rdv_chunking_partitions_payload(len in 1usize..100_000, chunk in 1usize..40_000) {
        use newmadeleine::core::{RdvJob, SendReqId};
        let data: Bytes = (0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>().into();
        let mut job = RdvJob::new(NodeId(1), Tag(0), SeqNo(0), data.clone(), SendReqId(0));
        let mut rebuilt = vec![0u8; len];
        let mut total = 0usize;
        let mut saw_last = false;
        while let Some(c) = job.take_chunk(chunk) {
            prop_assert!(!saw_last, "chunks after last");
            rebuilt[c.offset as usize..c.offset as usize + c.data.len()].copy_from_slice(&c.data);
            total += c.data.len();
            saw_last = c.last;
        }
        prop_assert!(saw_last);
        prop_assert_eq!(total, len);
        prop_assert_eq!(rebuilt.as_slice(), &data[..]);
    }

    /// Priority classes survive the submission hot path's slot format:
    /// arbitrary op sequences packed into `SLOT_OPS`-sized batches and
    /// pushed through the MPSC ring drain in submission order with
    /// every priority intact.
    #[test]
    fn priority_survives_ring_slot_batching(
        ops in proptest::collection::vec((0u32..64, 0u8..4), 1..100)
    ) {
        use newmadeleine::core::ring::{Batch, SubmitRing};
        use newmadeleine::core::SLOT_OPS;
        let ring: SubmitRing<Batch<(u32, Priority), SLOT_OPS>> = SubmitRing::new(64);
        let mut batch = Batch::new();
        for &(tag, lane) in &ops {
            let op = (tag, Priority::from_lane(lane));
            if let Err(op) = batch.push(op) {
                ring.push(std::mem::replace(&mut batch, Batch::new()));
                batch.push(op).expect("fresh batch has room");
            }
        }
        if !batch.is_empty() {
            ring.push(batch);
        }
        let mut drained = Vec::new();
        while let Some(b) = ring.pop() {
            drained.extend(b);
        }
        let expected: Vec<(u32, Priority)> = ops
            .iter()
            .map(|&(tag, lane)| (tag, Priority::from_lane(lane)))
            .collect();
        prop_assert_eq!(drained, expected);
    }

    /// Sharded routing with mixed priorities: flows hash to a shard on
    /// both nodes, every class of traffic rides its flow's shard, and
    /// delivery is exact per flow under `lanes` — lane-based
    /// reordering never crosses a flow boundary.
    #[test]
    fn sharded_routing_delivers_mixed_priority_flows_exactly(
        items in proptest::collection::vec((0u32..12, 1usize..2000, 0u8..4), 1..16)
    ) {
        use newmadeleine::core::ShardPolicy;
        const SHARDS: usize = 2;
        let world = shared_world(SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(); SHARDS]));
        let policy = ShardPolicy::HashByDest;
        let multi = |node: u32| {
            let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(&world, NodeId(node))
                .into_iter()
                .map(|d| Box::new(d) as Box<dyn Driver>)
                .collect();
            let meter = Box::new(newmadeleine::net::SimCpuMeter::new(world.clone(), NodeId(node)));
            NmadEngine::new(drivers, meter, Box::new(StratLanes::new()), EngineCosts::zero())
        };
        let mut senders = multi(0).split_for_shards(SHARDS, policy);
        let mut sinks = multi(1).split_for_shards(SHARDS, policy);
        let shard_of = |tag: u32| policy.route(SHARDS, NodeId(0), NodeId(1), Tag(tag));
        let mut expected: std::collections::HashMap<u32, Vec<Vec<u8>>> = Default::default();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (i, &(tag, len, lane)) in items.iter().enumerate() {
            let body: Vec<u8> = (0..len).map(|j| ((i * 17 + j) % 251) as u8).collect();
            let s = shard_of(tag);
            let idx = expected.get(&tag).map_or(0, Vec::len);
            recvs.push((tag, idx, s, sinks[s].post_recv(NodeId(0), Tag(tag), len)));
            sends.push((s, senders[s].submit_send_parts(
                NodeId(1),
                Tag(tag),
                vec![(Bytes::from(body.clone()), Priority::from_lane(lane))],
                None,
            )));
            expected.entry(tag).or_default().push(body);
        }
        run_until(&world, || {
            let mut moved = false;
            for e in senders.iter_mut().chain(sinks.iter_mut()) {
                moved |= e.progress_until_idle();
            }
            let all = sends.iter().all(|&(s, r)| senders[s].is_send_done(r))
                && recvs.iter().all(|&(_, _, s, r)| sinks[s].is_recv_done(r));
            if all { ControlFlow::Break(()) } else { ControlFlow::Continue(moved) }
        })
        .expect("sharded co-simulation");
        for (tag, idx, s, r) in recvs {
            let done = sinks[s].try_take_recv(r).expect("completed");
            prop_assert_eq!(
                &done.data,
                &expected[&tag][idx],
                "flow {} item {}", tag, idx
            );
        }
    }

    /// The steal path is priority-transparent: segments pulled off a
    /// victim by `donate_eager` keep their class, payload, and request
    /// identity; the thief transmits them as spool frames; and the
    /// `TxDone::Foreign` hand-back (`drain_spool_done` →
    /// `complete_foreign_done`) completes the victim's requests while
    /// the sink receives every byte exactly.
    #[test]
    fn steal_donation_keeps_priority_and_completes_foreign_sends(
        items in proptest::collection::vec((1usize..2048, 0u8..4), 1..12),
        donate_sel in 0usize..16
    ) {
        use newmadeleine::core::PackWrapper;
        let world = shared_world(SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(); 2]));
        let single = |node: u32, rail: u16, strat: Box<dyn Strategy>| {
            let driver = SimDriver::new(world.clone(), NodeId(node), RailId(rail));
            let meter = Box::new(driver.meter());
            NmadEngine::new(vec![Box::new(driver) as Box<dyn Driver>], meter, strat, EngineCosts::zero())
        };
        let mut victim = single(0, 0, Box::new(StratLanes::new()));
        let mut thief = single(0, 1, Box::new(StratDefault));
        let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(&world, NodeId(1))
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn Driver>)
            .collect();
        let meter = Box::new(newmadeleine::net::SimCpuMeter::new(world.clone(), NodeId(1)));
        let mut sink = NmadEngine::new(drivers, meter, Box::new(StratDefault), EngineCosts::zero());

        let mut sends = Vec::new();
        for (i, &(len, lane)) in items.iter().enumerate() {
            let body: Vec<u8> = (0..len).map(|j| ((i * 13 + j) % 251) as u8).collect();
            sends.push(victim.submit_send_parts(
                NodeId(1),
                Tag(i as u32),
                vec![(Bytes::from(body), Priority::from_lane(lane))],
                None,
            ));
        }
        let donated: Vec<PackWrapper> = victim.donate_eager(donate_sel % (items.len() + 1));
        for w in &donated {
            let (len, lane) = items[w.tag.0 as usize];
            prop_assert_eq!(w.priority, Priority::from_lane(lane), "donation changed the class");
            prop_assert_eq!(w.len(), len, "donation changed the payload");
        }
        let donated_reqs: Vec<_> = donated.iter().map(|w| w.req).collect();
        thief.accept_donations(0, donated);

        let mut recvs = Vec::new();
        for (i, &(len, _)) in items.iter().enumerate() {
            recvs.push(sink.post_recv(NodeId(0), Tag(i as u32), len));
        }
        run_until(&world, || {
            let moved = victim.progress() | thief.progress() | sink.progress();
            for (req, victim_idx) in thief.drain_spool_done() {
                assert_eq!(victim_idx, 0, "foreign done routed to the wrong victim");
                victim.complete_foreign_done(req);
            }
            let all = sends.iter().all(|&s| victim.is_send_done(s))
                && recvs.iter().all(|&r| sink.is_recv_done(r));
            if all { ControlFlow::Break(()) } else { ControlFlow::Continue(moved) }
        })
        .expect("steal co-simulation");
        for req in donated_reqs {
            prop_assert!(victim.is_send_done(req), "foreign completion lost");
        }
        for (i, &(len, _)) in items.iter().enumerate() {
            let done = sink.try_take_recv(recvs[i]).expect("completed");
            prop_assert_eq!(done.data.len(), len, "flow {} truncated", i);
        }
    }
}

/// Drives both engines (and virtual time) until `done` holds.
fn pump_until(
    world: &SharedWorld,
    a: &mut NmadEngine,
    b: &mut NmadEngine,
    done: impl Fn(&NmadEngine, &NmadEngine) -> bool,
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

/// One eager data frame is two iov segments (header block + payload).
/// A NIC whose gather limit is exactly two must take the gather path
/// with zero staging copies: the `segments <= gather_max_segs` decision
/// is inclusive at the boundary.
#[test]
fn frame_exactly_at_gather_limit_posts_without_staging() {
    let model = newmadeleine::sim::NicModel {
        gather_max_segs: 2,
        ..nic::mx_myri10g()
    };
    let world = shared_world(SimConfig::two_nodes(model));
    let mut a = engine(&world, 0, Box::new(StratDefault));
    let mut b = engine(&world, 1, Box::new(StratDefault));
    let s = a.isend(NodeId(1), Tag(7), vec![0x42u8; 128]);
    let r = b.post_recv(NodeId(0), Tag(7), 128);
    pump_until(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    let m = a.metrics();
    assert!(m.engine.gather_sends > 0, "boundary frame must gather");
    assert_eq!(m.wire.staging_copies, 0, "no staging at the boundary");
}

/// The same frame on a NIC that allows one segment fewer must fall
/// back to a staged copy — and still deliver identical bytes.
#[test]
fn frame_one_over_gather_limit_stages_a_copy() {
    let model = newmadeleine::sim::NicModel {
        gather_max_segs: 1,
        ..nic::mx_myri10g()
    };
    let world = shared_world(SimConfig::two_nodes(model));
    let mut a = engine(&world, 0, Box::new(StratDefault));
    let mut b = engine(&world, 1, Box::new(StratDefault));
    let body: Vec<u8> = (0..128u32).map(|i| (i % 251) as u8).collect();
    let s = a.isend(NodeId(1), Tag(7), body.clone());
    let r = b.post_recv(NodeId(0), Tag(7), 128);
    pump_until(&world, &mut a, &mut b, |a, b| {
        a.is_send_done(s) && b.is_recv_done(r)
    });
    let m = a.metrics();
    assert_eq!(m.engine.gather_sends, 0, "gatherless NIC must not gather");
    assert!(m.wire.staging_copies > 0, "fallback must stage");
    assert_eq!(&b.try_take_recv(r).expect("completed").data, &body);
}

/// The sim driver enforces its MTU exactly: a frame of `mtu` bytes is
/// accepted, one byte more is rejected as `FrameTooLarge`.
#[test]
fn mtu_boundary_is_exact_at_the_driver() {
    let model = newmadeleine::sim::NicModel {
        mtu: 4096,
        ..nic::mx_myri10g()
    };
    let world = shared_world(SimConfig::two_nodes(model));
    let mut d = SimDriver::new(world.clone(), NodeId(0), RailId(0));
    let mut fb = FrameBuilder::new();
    fb.push_data(Tag(0), SeqNo(0), &vec![0u8; 4096 - fb.len() - 20]);
    let at_mtu = fb.finish();
    assert_eq!(at_mtu.len(), 4096);
    d.post_send(NodeId(1), &[&at_mtu])
        .expect("frame at mtu fits");
    let over = vec![0u8; 4097];
    assert!(
        d.post_send(NodeId(1), &[&over]).is_err(),
        "frame one byte over mtu must be rejected"
    );
}
