//! Pluggable scheduling strategies.
//!
//! "We propose a (dynamically ...) selectable optimization function
//! instead of a fixed optimizing heuristic. The optimization function is
//! to be selected among an extensible and programmable set of
//! strategies" (§3.2). A [`Strategy`] is that optimization function: it
//! is called by the transfer layer whenever a NIC is idle, looks at the
//! optimization window and the NIC's capabilities, and synthesizes the
//! next ready-to-send frame.
//!
//! Built-in strategies:
//!
//! * [`StratDefault`] — FIFO, one segment per frame, no optimization
//!   (the ablation and overhead-measurement baseline);
//! * [`StratAggreg`] — the paper's *aggregation* strategy:
//!   "accumulates communication requests as long as the cumulated
//!   length does not require to switch to the rendez-vous protocol"
//!   (§4), across logical flows;
//! * [`StratReorder`] — aggregation plus segment reordering, used for
//!   the derived-datatype experiment: "aggregates all the small blocks
//!   (using messages reordering) with the rendez-vous requests of the
//!   large blocks" (§5.3);
//! * [`StratMultirail`] — the paper's *multi-rails* strategy:
//!   "balances the communication flow over the set of available NICs,
//!   possibly by splitting messages in a heterogeneous manner" (§4).
//!
//! Writing a new strategy "only requires to write a few methods" (§4):
//! implement [`Strategy::schedule`] (and optionally [`Strategy::init`])
//! against the public [`Window`] API.

mod aggreg;
mod aggreg_hol;
mod default;
mod dynamic;
mod lanes;
mod multirail;
mod reorder;

pub use aggreg::StratAggreg;
pub use aggreg_hol::StratAggregHol;
pub use default::StratDefault;
pub use dynamic::{DynamicStats, StratDynamic, Tactic};
pub use lanes::StratLanes;
pub use multirail::StratMultirail;
pub use reorder::StratReorder;

use crate::segment::{PackWrapper, Priority};
use crate::window::{CtrlMsg, RdvChunk, Window};
use crate::wire::{ENTRY_HEADER_LEN, FRAME_HEADER_LEN};
use nmad_net::Capabilities;
use nmad_sim::NodeId;

/// What the strategy sees of the NIC asking for work.
pub struct NicView<'a> {
    /// Index of the NIC within the engine (matches dedicated lists).
    pub index: usize,
    /// Facts collected from the driver at initialisation.
    pub caps: &'a Capabilities,
}

/// One planned wire entry.
#[derive(Debug)]
pub enum PlanEntry {
    /// A rendezvous grant (control).
    Cts(CtrlMsg),
    /// An eager application segment, consumed from the window.
    Data(PackWrapper),
    /// A rendezvous announcement; the engine parks the wrapper's data
    /// until the CTS returns.
    Rts(PackWrapper),
    /// A chunk of granted rendezvous payload.
    RdvChunk(RdvChunk),
}

/// A synthesized frame: every entry travels to `dst` in one driver send.
#[derive(Debug)]
pub struct FramePlan {
    /// Destination node.
    pub dst: NodeId,
    /// The planned wire entries, in frame order.
    pub entries: Vec<PlanEntry>,
    /// Entries the strategy pulled out of submission order (the
    /// reordering strategies increment this; FIFO strategies leave 0).
    pub reordered: u32,
}

impl FramePlan {
    /// An empty plan towards `dst`.
    pub fn new(dst: NodeId) -> Self {
        FramePlan {
            dst,
            entries: Vec::new(),
            reordered: 0,
        }
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The optimization function interface.
pub trait Strategy: Send {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// Called once with every NIC's capabilities before scheduling
    /// starts (multirail uses this to learn the total bandwidth).
    fn init(&mut self, _nics: &[Capabilities]) {}

    /// Synthesizes the next frame for an idle NIC, or `None` when the
    /// window holds nothing this NIC can send.
    fn schedule(&mut self, window: &mut Window, nic: &NicView<'_>) -> Option<FramePlan>;

    /// Notifies the strategy that `rail` refused a send and was marked
    /// dead. Strategies holding per-rail state (bandwidth shares)
    /// re-plan over the survivors; the default is a no-op.
    fn on_rail_fault(&mut self, _rail: usize) {}

    /// Builds the instance a progression shard will own when the
    /// engine splits into `shards` independent shards (this one being
    /// shard `shard`). The shard engine calls [`Strategy::init`] on
    /// the returned instance with its own rail subset, so
    /// implementations only carry over *configuration* (forced
    /// tactics, tuning knobs) — per-rail state re-derives from `init`.
    fn for_shard(&self, shard: usize, shards: usize) -> Box<dyn Strategy>;
}

/// Per-frame aggregation budget shared by the strategy implementations.
pub(crate) struct Budget {
    /// Eager payload ceiling: the paper's aggregation bound is the
    /// rendezvous threshold.
    pub payload_limit: usize,
    /// Whole-frame byte ceiling (MTU).
    pub frame_limit: usize,
    pub payload: usize,
    pub frame: usize,
    pub entries: usize,
}

impl Budget {
    pub fn new(caps: &Capabilities) -> Self {
        Budget {
            payload_limit: caps.rdv_threshold,
            frame_limit: caps.mtu,
            payload: 0,
            frame: FRAME_HEADER_LEN,
            entries: 0,
        }
    }

    /// Room for an eager data entry of `len` payload bytes?
    pub fn fits_data(&self, len: usize) -> bool {
        self.entries < u16::MAX as usize
            && self.payload + len <= self.payload_limit
            && self
                .frame
                .saturating_add(ENTRY_HEADER_LEN)
                .saturating_add(len)
                <= self.frame_limit
    }

    /// Room for a payload-less entry (RTS/CTS)?
    pub fn fits_bare(&self) -> bool {
        self.entries < u16::MAX as usize
            && self.frame.saturating_add(ENTRY_HEADER_LEN) <= self.frame_limit
    }

    pub fn add_data(&mut self, len: usize) {
        self.payload += len;
        self.frame += ENTRY_HEADER_LEN + len;
        self.entries += 1;
    }

    pub fn add_bare(&mut self) {
        self.frame += ENTRY_HEADER_LEN;
        self.entries += 1;
    }

    /// Accounts a rendezvous chunk: chunks are exempt from the eager
    /// payload ceiling (they *are* the large transfers the ceiling
    /// diverts), only the frame size grows.
    pub fn add_chunk(&mut self, len: usize) {
        self.frame += ENTRY_HEADER_LEN + len;
        self.entries += 1;
    }

    /// Largest rendezvous chunk that still fits in this frame.
    pub fn max_chunk(&self) -> usize {
        self.frame_limit
            .saturating_sub(self.frame)
            .saturating_sub(ENTRY_HEADER_LEN)
    }
}

/// Largest segment the eager path can carry on this NIC: the
/// rendezvous threshold, additionally capped by the MTU (a segment
/// that cannot fit in one frame must use the chunked rendezvous path
/// regardless of the driver's suggested threshold).
pub fn eager_cutoff(caps: &Capabilities) -> usize {
    caps.rdv_threshold
        .min(caps.mtu.saturating_sub(FRAME_HEADER_LEN + ENTRY_HEADER_LEN))
}

/// Drains all control messages towards `dst` into `plan` (every
/// built-in strategy sends grants with maximum urgency).
pub(crate) fn plan_ctrl(plan: &mut FramePlan, window: &mut Window, budget: &mut Budget) {
    for msg in window.drain_ctrl_for(plan.dst) {
        // Control entries are tiny; the budget cannot realistically
        // overflow, but keep the arithmetic honest.
        if !budget.fits_bare() {
            window.push_ctrl(msg);
            break;
        }
        budget.add_bare();
        plan.entries.push(PlanEntry::Cts(msg));
    }
}

/// The contended-chunk bound the tail-aware strategies feed to
/// [`rdv_admission_cap`]: a quarter of the MTU, but never more than
/// the rendezvous threshold (several simulated NICs advertise an
/// unlimited MTU, where "a quarter of it" would cap nothing).
pub(crate) fn contended_chunk(caps: &Capabilities) -> usize {
    (caps.mtu / 4).min(caps.rdv_threshold).max(1)
}

/// Deadline-aware rendezvous admission (tail-aware strategies): the
/// largest chunk a granted rendezvous job towards `dst` may cut right
/// now. While expedited (Urgent/High) segments are pending anywhere in
/// the window, chunks are capped at `contended_chunk` bytes so a large
/// RTS/CTS transfer cannot monopolize the rail during a burst — unless
/// the job has already waited more than `deadline` submission stamps,
/// in which case it is admitted at full size again (bulk transfers age
/// out of the cap instead of starving behind a persistent flood).
pub(crate) fn rdv_admission_cap(
    window: &Window,
    dst: NodeId,
    contended_chunk: usize,
    deadline: u64,
) -> usize {
    let contended = (0..=Priority::High.lane()).any(|l| window.lane_depth(l) > 0);
    if !contended {
        return usize::MAX;
    }
    let Some(job) = window.rdv_front_for(dst) else {
        return usize::MAX;
    };
    let age = window.order_horizon().saturating_sub(job.order());
    if age > deadline {
        usize::MAX
    } else {
        contended_chunk
    }
}

/// Appends one rendezvous chunk towards `plan.dst` if a granted job is
/// pending and the budget allows. Returns true if a chunk was added.
pub(crate) fn plan_rdv_chunk(
    plan: &mut FramePlan,
    window: &mut Window,
    budget: &mut Budget,
    max_chunk: usize,
) -> bool {
    // Chunks are length-prefixed with u32 on the wire.
    let room = budget.max_chunk().min(max_chunk).min(u32::MAX as usize);
    if room == 0 {
        return false;
    }
    if let Some(chunk) = window.take_rdv_chunk(plan.dst, room) {
        budget.add_chunk(chunk.data.len());
        plan.entries.push(PlanEntry::RdvChunk(chunk));
        true
    } else {
        false
    }
}
