//! Property tests on the scheduling strategies themselves: for ANY
//! window content, every built-in strategy must respect the frame
//! budget (cumulated eager length ≤ rendezvous threshold, frame ≤ MTU),
//! classify segments correctly (eager vs RTS), keep frames
//! single-destination, and drain the window without loss or
//! duplication.

use bytes::Bytes;
use newmadeleine::core::eager_cutoff;
use newmadeleine::core::wire::{ENTRY_HEADER_LEN, FRAME_HEADER_LEN};
use newmadeleine::core::{
    EngineCosts, NmadEngine, PackWrapper, PlanEntry, Priority, SendReqId, SeqNo, StratAggreg,
    StratDefault, StratDynamic, StratLanes, StratMultirail, StratReorder, Strategy, Tag, Window,
};
use newmadeleine::net::{Capabilities, SimDriver};
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SimConfig};
use proptest::prelude::*;
use std::ops::ControlFlow;

#[derive(Clone, Debug)]
struct GenSeg {
    dst: u32,
    tag: u32,
    len: usize,
    high_priority: bool,
}

fn seg_gen() -> impl proptest::strategy::Strategy<Value = GenSeg> {
    use proptest::strategy::Strategy as _;
    (
        0u32..3,
        0u32..5,
        prop_oneof![
            3 => 0usize..2_000,
            1 => 20_000usize..80_000
        ],
        proptest::bool::ANY,
    )
        .prop_map(|(dst, tag, len, high_priority)| GenSeg {
            dst: dst + 1, // node 0 is the sender
            tag,
            len,
            high_priority,
        })
}

fn strategies() -> Vec<(&'static str, Box<dyn Strategy>)> {
    let caps = [Capabilities::from_nic(&nic::mx_myri10g())];
    let mut out: Vec<(&'static str, Box<dyn Strategy>)> = vec![
        ("default", Box::new(StratDefault)),
        ("aggreg", Box::new(StratAggreg)),
        ("reorder", Box::new(StratReorder)),
        ("multirail", Box::new(StratMultirail::default())),
        ("dynamic", Box::new(StratDynamic::new())),
        ("lanes", Box::new(StratLanes::new())),
    ];
    for (_, s) in &mut out {
        s.init(&caps);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_strategy_respects_frame_budgets_and_drains(
        segs in proptest::collection::vec(seg_gen(), 0..24),
        mtu_limited in proptest::bool::ANY,
    ) {
        let mut caps = Capabilities::from_nic(&nic::mx_myri10g());
        if mtu_limited {
            caps.mtu = 8 * 1024;
        }
        for (name, mut strat) in strategies() {
            let mut window = Window::new(1);
            for (i, g) in segs.iter().enumerate() {
                window.push_segment(
                    PackWrapper {
                        dst: NodeId(g.dst),
                        tag: Tag(g.tag),
                        seq: SeqNo(i as u32),
                        priority: if g.high_priority { Priority::High } else { Priority::Normal },
                        data: Bytes::from(vec![0u8; g.len]),
                        req: SendReqId(i as u64),
                        order: i as u64,
                    },
                    None,
                );
            }

            let view = newmadeleine::core::NicView { index: 0, caps: &caps };
            let mut scheduled: Vec<(u32, u32, u32, usize)> = Vec::new(); // dst,tag,seq,len
            let mut frames = 0;
            while let Some(plan) = strat.schedule(&mut window, &view) {
                frames += 1;
                prop_assert!(frames <= 10_000, "{name}: runaway scheduling");
                prop_assert!(!plan.is_empty(), "{name}: empty frame");
                let mut eager_payload = 0usize;
                let mut frame_len = FRAME_HEADER_LEN;
                for entry in &plan.entries {
                    match entry {
                        PlanEntry::Data(w) => {
                            prop_assert_eq!(w.dst, plan.dst, "{}: foreign dst", name);
                            prop_assert!(
                                w.len() <= eager_cutoff(&caps),
                                "{name}: oversized eager segment"
                            );
                            eager_payload += w.len();
                            frame_len += ENTRY_HEADER_LEN + w.len();
                            scheduled.push((w.dst.0, w.tag.0, w.seq.0, w.len()));
                        }
                        PlanEntry::Rts(w) => {
                            prop_assert_eq!(w.dst, plan.dst, "{}: foreign dst", name);
                            prop_assert!(
                                w.len() > eager_cutoff(&caps),
                                "{name}: small segment sent via rendezvous"
                            );
                            frame_len += ENTRY_HEADER_LEN;
                            scheduled.push((w.dst.0, w.tag.0, w.seq.0, w.len()));
                        }
                        PlanEntry::Cts(c) => {
                            prop_assert_eq!(c.dst, plan.dst, "{}: foreign ctrl dst", name);
                            frame_len += ENTRY_HEADER_LEN;
                        }
                        PlanEntry::RdvChunk(c) => {
                            prop_assert_eq!(c.dst, plan.dst, "{}: foreign chunk dst", name);
                            frame_len += ENTRY_HEADER_LEN + c.data.len();
                        }
                    }
                }
                prop_assert!(
                    eager_payload <= caps.rdv_threshold,
                    "{name}: cumulated eager {eager_payload} exceeds the aggregation bound"
                );
                prop_assert!(
                    frame_len <= caps.mtu,
                    "{name}: frame {frame_len} exceeds mtu {}",
                    caps.mtu
                );
            }

            // Exactly the submitted segments were scheduled, no loss,
            // no duplication.
            prop_assert!(window.is_empty(), "{name}: window not drained");
            let mut expected: Vec<(u32, u32, u32, usize)> = segs
                .iter()
                .enumerate()
                .map(|(i, g)| (g.dst, g.tag, i as u32, g.len))
                .collect();
            expected.sort_unstable();
            scheduled.sort_unstable();
            prop_assert_eq!(scheduled, expected, "{}: segment set mismatch", name);
        }
    }

    #[test]
    fn entries_aggregated_counter_matches_the_trace(
        sizes in proptest::collection::vec(1usize..1500, 1..16),
        strat_idx in 0usize..3,
    ) {
        // The engine's scheduling-layer counter and the simulator's
        // strategy-decision trace are independent observers of the same
        // frames; for any small-message workload they must agree, on
        // both sides of the link (the receiver's engine schedules
        // frames too when traffic flows back).
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        world.lock().enable_trace();
        let mut engines: Vec<NmadEngine> = (0..2u32)
            .map(|n| {
                let strat: Box<dyn Strategy> = match strat_idx {
                    0 => Box::new(StratDefault),
                    1 => Box::new(StratAggreg),
                    _ => Box::new(StratReorder),
                };
                let d = SimDriver::new(world.clone(), NodeId(n), RailId(0));
                let m = Box::new(d.meter());
                NmadEngine::new(vec![Box::new(d)], m, strat, EngineCosts::zero())
            })
            .collect();
        let (b, a) = (engines.pop().unwrap(), engines.pop().unwrap());
        let (mut a, mut b) = (a, b);
        let sends: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| a.isend(NodeId(1), Tag(i as u32), vec![0u8; len]))
            .collect();
        let recvs: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| b.post_recv(NodeId(0), Tag(i as u32), len))
            .collect();
        let converged = run_until(&world, || {
            let moved = a.progress() | b.progress();
            if sends.iter().all(|&s| a.is_send_done(s))
                && recvs.iter().all(|&r| b.is_recv_done(r))
            {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(moved)
            }
        });
        prop_assert!(converged.is_ok(), "workload did not complete: {:?}", converged);
        let trace = world.lock().take_trace();
        let ma = a.metrics();
        prop_assert_eq!(
            ma.engine.entries_aggregated,
            trace.decision_entries_for(NodeId(0)),
            "sender counter diverged from trace"
        );
        let mb = b.metrics();
        prop_assert_eq!(
            mb.engine.entries_aggregated,
            trace.decision_entries_for(NodeId(1)),
            "receiver counter diverged from trace"
        );
        prop_assert_eq!(
            ma.engine.frames_synthesized + mb.engine.frames_synthesized,
            trace.decisions() as u64,
            "every synthesized frame is one traced decision"
        );
    }

    #[test]
    fn fifo_strategies_preserve_per_flow_order(
        segs in proptest::collection::vec(seg_gen(), 0..24),
    ) {
        // default and aggreg never reorder within a flow; reorder and
        // dynamic may, but per-flow sequence numbers must still appear
        // in increasing order *per flow* for FIFO strategies.
        let caps = Capabilities::from_nic(&nic::mx_myri10g());
        for (name, mut strat) in strategies().into_iter().take(2) {
            let mut window = Window::new(1);
            for (i, g) in segs.iter().enumerate() {
                window.push_segment(
                    PackWrapper {
                        dst: NodeId(g.dst),
                        tag: Tag(g.tag),
                        seq: SeqNo(i as u32),
                        priority: Priority::Normal,
                        data: Bytes::from(vec![0u8; g.len]),
                        req: SendReqId(i as u64),
                        order: i as u64,
                    },
                    None,
                );
            }
            let view = newmadeleine::core::NicView { index: 0, caps: &caps };
            let mut last_seq: std::collections::HashMap<(u32, u32), u32> = Default::default();
            while let Some(plan) = strat.schedule(&mut window, &view) {
                for entry in &plan.entries {
                    let (dst, tag, seq) = match entry {
                        PlanEntry::Data(w) | PlanEntry::Rts(w) => (w.dst.0, w.tag.0, w.seq.0),
                        _ => continue,
                    };
                    if let Some(&prev) = last_seq.get(&(dst, tag)) {
                        prop_assert!(
                            seq > prev,
                            "{name}: flow ({dst},{tag}) scheduled {seq} after {prev}"
                        );
                    }
                    last_seq.insert((dst, tag), seq);
                }
            }
        }
    }
}
