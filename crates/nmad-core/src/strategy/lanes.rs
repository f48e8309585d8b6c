//! Priority-lane strategy: strict lanes with aging promotion and a
//! weighted deficit share across tenants inside each lane.
//!
//! The optimization window indexes every queued segment by `(dst,
//! lane)` in submission order, so this strategy answers "which lane,
//! which destination, which flow" without scanning the queue:
//!
//! * **Strict lanes** — frames are filled serving [`Priority::Urgent`]
//!   before `High` before `Normal` before `Bulk`, per-lane FIFO (the
//!   receiver restores per-flow order from sequence numbers, so
//!   cross-flow reordering is invisible to applications).
//! * **Aging promotion** — a segment's *effective* lane improves by
//!   one for every `age_step` submissions that entered the window
//!   since it did (`age = order_horizon - order`). A `Bulk` segment is
//!   therefore served as `Urgent` after at most `3 * age_step`
//!   submissions: starvation-freedom is a bound, not a hope.
//! * **Weighted deficit across tenants** — inside one lane, each
//!   tenant (tag) may place at most `quantum` payload bytes into the
//!   frame per round; when every pending tenant has spent its quantum
//!   the round resets. A chatty tenant cannot lock a quiet one out of
//!   its own lane.
//! * **Deadline-aware rendezvous admission** — granted rendezvous
//!   chunks are capped at a fraction of the MTU while expedited
//!   segments are pending, unless the job has aged past the deadline
//!   (see [`super::rdv_admission_cap`]).

use super::{
    contended_chunk, eager_cutoff, plan_ctrl, plan_rdv_chunk, rdv_admission_cap, Budget, FramePlan,
    NicView, PlanEntry, Strategy,
};
use crate::segment::{Priority, Tag, NUM_LANES};
use crate::window::Window;
use nmad_sim::FxHashMap;

/// Default aging step: one lane of promotion per this many submissions.
pub const DEFAULT_AGE_STEP: u64 = 512;

/// Default per-tenant deficit quantum per lane round, in payload bytes.
pub const DEFAULT_QUANTUM: usize = 4096;

/// Default rendezvous deadline, in submission stamps.
pub const DEFAULT_RDV_DEADLINE: u64 = 2048;

/// The priority-lane strategy (see module docs).
#[derive(Clone, Debug)]
pub struct StratLanes {
    /// Submissions per lane of aging promotion.
    pub age_step: u64,
    /// Per-tenant payload bytes per lane round.
    pub quantum: usize,
    /// Rendezvous ages past this admit full-size chunks even under
    /// expedited pressure.
    pub rdv_deadline: u64,
}

impl Default for StratLanes {
    fn default() -> Self {
        StratLanes {
            age_step: DEFAULT_AGE_STEP,
            quantum: DEFAULT_QUANTUM,
            rdv_deadline: DEFAULT_RDV_DEADLINE,
        }
    }
}

impl StratLanes {
    /// Default tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Custom tuning. `age_step` and `quantum` are clamped to at
    /// least 1 so the aging and deficit arithmetic stay well-defined.
    pub fn with_params(age_step: u64, quantum: usize, rdv_deadline: u64) -> Self {
        StratLanes {
            age_step: age_step.max(1),
            quantum: quantum.max(1),
            rdv_deadline,
        }
    }

    /// Effective lane of a segment submitted at `order`, under the
    /// current horizon: its priority lane minus one per `age_step`
    /// submissions of age, clamped at `Urgent`.
    fn effective_lane(&self, horizon: u64, priority: Priority, order: u64) -> u8 {
        let age = horizon.saturating_sub(order);
        let promote = (age / self.age_step).min(u64::from(priority.lane())) as u8;
        priority.lane() - promote
    }
}

impl Strategy for StratLanes {
    fn name(&self) -> &'static str {
        "lanes"
    }

    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan> {
        let horizon = window.order_horizon();

        // Destination: pending grants first (they unblock a receiver
        // that already pinned memory), then the destination of the
        // globally most-urgent *effective* segment, then rendezvous
        // fallback.
        let seg_dst = {
            let mut best: Option<(u8, u64, nmad_sim::NodeId)> = None;
            for lane in 0..NUM_LANES as u8 {
                if let Some((dst, order)) = window.global_oldest_in_lane(lane) {
                    let eff = self.effective_lane(horizon, Priority::from_lane(lane), order);
                    if best.is_none_or(|(be, bo, _)| (eff, order) < (be, bo)) {
                        best = Some((eff, order, dst));
                    }
                }
            }
            best.map(|(_, _, dst)| dst)
        };
        let dst = window
            .ctrl_ref()
            .front()
            .map(|c| c.dst)
            .or(seg_dst)
            .or_else(|| window.next_dst(nic.index))?;

        let mut plan = FramePlan::new(dst);
        let mut budget = Budget::new(nic.caps);
        let cutoff = eager_cutoff(nic.caps);

        plan_ctrl(&mut plan, window, &mut budget);

        let rdv_cap = rdv_admission_cap(window, dst, contended_chunk(nic.caps), self.rdv_deadline);
        plan_rdv_chunk(&mut plan, window, &mut budget, rdv_cap);

        // Fill the remaining budget serving effective lanes in strict
        // urgency order; per-lane FIFO; per-tenant deficit inside a
        // lane.
        for service in 0..NUM_LANES as u8 {
            let mut used: FxHashMap<Tag, usize> = FxHashMap::default();
            let mut took_since_reset = false;
            loop {
                if !budget.fits_bare() {
                    break;
                }
                let taken = window.take_first_matching_tracked(nic.index, |w| {
                    w.dst == dst
                        && self.effective_lane(horizon, w.priority, w.order) == service
                        && (w.len() > cutoff || budget.fits_data(w.len()))
                        && used.get(&w.tag).copied().unwrap_or(0) < self.quantum
                });
                match taken {
                    Some((w, jumped)) => {
                        plan.reordered += u32::from(jumped);
                        took_since_reset = true;
                        *used.entry(w.tag).or_insert(0) += w.len().max(1);
                        if w.len() > cutoff {
                            if !budget.fits_bare() {
                                window.push_segment(w, None);
                                break;
                            }
                            budget.add_bare();
                            plan.entries.push(PlanEntry::Rts(w));
                        } else {
                            budget.add_data(w.len());
                            plan.entries.push(PlanEntry::Data(w));
                        }
                    }
                    None => {
                        // Every pending tenant in this lane may have
                        // spent its quantum: grant a fresh round, but
                        // only if the last round made progress
                        // (otherwise nothing here fits the budget).
                        if took_since_reset {
                            used.clear();
                            took_since_reset = false;
                            continue;
                        }
                        break;
                    }
                }
            }
        }

        if plan.is_empty() {
            None
        } else {
            Some(plan)
        }
    }

    fn for_shard(&self, _shard: usize, _shards: usize) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PackWrapper, SendReqId, SeqNo};
    use crate::window::{RdvJob, Window};
    use nmad_net::Capabilities;
    use nmad_sim::{nic, NodeId};

    fn caps() -> Capabilities {
        Capabilities::from_nic(&nic::mx_myri10g())
    }

    fn view(caps: &Capabilities) -> NicView<'_> {
        NicView { index: 0, caps }
    }

    fn seg(tag: u32, len: usize, priority: Priority, order: u64) -> PackWrapper {
        PackWrapper {
            dst: NodeId(1),
            tag: Tag(tag),
            seq: SeqNo(0),
            priority,
            data: vec![7u8; len].into(),
            req: SendReqId(0),
            order,
        }
    }

    fn lanes_of(plan: &FramePlan) -> Vec<u8> {
        plan.entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data(w) | PlanEntry::Rts(w) => Some(w.priority.lane()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn urgent_jumps_the_bulk_queue() {
        let caps = caps();
        let mut w = Window::new(1);
        for i in 0..4 {
            w.push_segment(seg(0, 256, Priority::Bulk, i), None);
        }
        w.push_segment(seg(1, 64, Priority::Urgent, 4), None);
        let mut s = StratLanes::new();
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        assert_eq!(lanes_of(&plan)[0], Priority::Urgent.lane());
        assert!(plan.reordered > 0, "urgent segment jumped the queue");
        assert!(w.index_is_consistent());
    }

    #[test]
    fn per_lane_fifo_is_preserved() {
        let caps = caps();
        let mut w = Window::new(1);
        for i in 0..3 {
            w.push_segment(seg(5, 100 + i as usize, Priority::High, i), None);
        }
        let mut s = StratLanes::new();
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        let lens: Vec<usize> = plan
            .entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data(w) => Some(w.data.len()),
                _ => None,
            })
            .collect();
        assert_eq!(lens, vec![100, 101, 102], "same-lane same-tag is FIFO");
    }

    #[test]
    fn deficit_round_robin_shares_a_lane_between_tenants() {
        let caps = caps();
        let mut w = Window::new(1);
        // Tenant 0 floods the Normal lane ahead of tenant 1.
        for i in 0..4 {
            w.push_segment(seg(0, 100, Priority::Normal, i), None);
        }
        w.push_segment(seg(1, 100, Priority::Normal, 4), None);
        // One 100-byte segment exhausts a tenant's quantum per round.
        let mut s = StratLanes::with_params(DEFAULT_AGE_STEP, 100, DEFAULT_RDV_DEADLINE);
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        let tags: Vec<u32> = plan
            .entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data(w) => Some(w.tag.0),
                _ => None,
            })
            .collect();
        // Round 1 serves one segment of each tenant; tenant 1 is done
        // after its first, the rest of tenant 0 follows in later rounds.
        assert_eq!(tags[0], 0);
        assert_eq!(tags[1], 1, "tenant 1 served within one quantum round");
        assert_eq!(tags.iter().filter(|&&t| t == 0).count(), 4);
    }

    #[test]
    fn aging_promotes_bulk_ahead_of_fresh_urgent() {
        let caps = caps();
        let mut w = Window::new(1);
        let step = 4;
        // Bulk submitted at order 0; enough younger traffic follows
        // that its age (horizon - 0) crosses 3 * step => Urgent.
        w.push_segment(seg(0, 64, Priority::Bulk, 0), None);
        w.push_segment(seg(1, 64, Priority::Urgent, 3 * step), None);
        let mut s = StratLanes::with_params(step, DEFAULT_QUANTUM, DEFAULT_RDV_DEADLINE);
        assert_eq!(
            s.effective_lane(w.order_horizon(), Priority::Bulk, 0),
            Priority::Urgent.lane(),
            "aged bulk is effectively urgent"
        );
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        let tags: Vec<u32> = plan
            .entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data(w) => Some(w.tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![0, 1], "aged bulk first, then fresh urgent");
    }

    #[test]
    fn rdv_chunks_are_capped_while_expedited_work_is_pending() {
        let caps = caps();
        let mut w = Window::new(1);
        let body: bytes::Bytes = vec![1u8; 200_000].into();
        // A fresh rendezvous job (order = horizon) and a pending
        // urgent segment: chunk must be capped at mtu / 4.
        w.push_segment(seg(1, 64, Priority::Urgent, 9), None);
        w.push_rdv(
            RdvJob::new(NodeId(1), Tag(0), SeqNo(0), body.clone(), SendReqId(1)).with_order(9),
        );
        let mut s = StratLanes::new();
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        let chunk = plan
            .entries
            .iter()
            .find_map(|e| match e {
                PlanEntry::RdvChunk(c) => Some(c.data.len()),
                _ => None,
            })
            .expect("chunk planned");
        assert!(
            chunk <= caps.rdv_threshold,
            "chunk {} exceeds contended cap {}",
            chunk,
            caps.rdv_threshold
        );

        // Past the deadline the same job is admitted at full size.
        let mut w2 = Window::new(1);
        w2.push_segment(seg(1, 64, Priority::Urgent, 5000), None);
        w2.push_rdv(RdvJob::new(NodeId(1), Tag(0), SeqNo(0), body, SendReqId(1)).with_order(0));
        let plan2 = s.schedule(&mut w2, &view(&caps)).expect("plan");
        let chunk2 = plan2
            .entries
            .iter()
            .find_map(|e| match e {
                PlanEntry::RdvChunk(c) => Some(c.data.len()),
                _ => None,
            })
            .expect("chunk planned");
        assert!(
            chunk2 > caps.rdv_threshold,
            "aged job must be admitted past the cap, got {}",
            chunk2
        );
    }

    #[test]
    fn oversized_segments_become_rts_in_lane_order() {
        let caps = caps();
        let mut w = Window::new(1);
        w.push_segment(seg(0, caps.rdv_threshold + 10, Priority::Bulk, 0), None);
        w.push_segment(seg(1, caps.rdv_threshold + 10, Priority::Urgent, 1), None);
        let mut s = StratLanes::new();
        let plan = s.schedule(&mut w, &view(&caps)).expect("plan");
        let kinds: Vec<(u32, bool)> = plan
            .entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Rts(w) => Some((w.tag.0, true)),
                PlanEntry::Data(w) => Some((w.tag.0, false)),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![(1, true), (0, true)], "urgent RTS first");
    }
}
