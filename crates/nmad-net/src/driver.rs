//! The driver abstraction of the transfer layer.
//!
//! The paper's transfer layer is "a minimal network API (initialisation,
//! closing, sending, receiving and polling methods)" plus a handful of
//! collected facts about the card: rendezvous threshold, gather/scatter
//! and RDMA availability (§4). [`Driver`] is exactly that surface;
//! everything above it (window, strategies, rendezvous, matching) is
//! network-independent, so — as in the paper — "any strategy can be
//! directly combined with any network protocol".
//!
//! Drivers are *frame* transports: they move opaque byte frames between
//! nodes, preserving per-link FIFO order, and report transmit-side
//! completion. The engine's multiplexing headers live inside the frame.

use crate::endpoint::EndpointStats;
use crate::fault::{FaultPlan, FaultStats};
use bytes::Bytes;
use nmad_sim::{NodeId, RailReadiness};
use std::fmt;

/// Static facts the engine collects from a driver at initialisation
/// (paper §4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Technology name for reports (`"MX/Myri-10G"`, `"tcp"`, ...).
    pub name: String,
    /// Advertised one-way latency in nanoseconds (scheduling hint only).
    pub latency_ns: u64,
    /// Advertised bandwidth in bytes/second (scheduling hint only).
    pub bandwidth_bps: u64,
    /// Max gather entries per send descriptor; `1` = no hardware gather,
    /// the engine must stage multi-segment packets through a copy.
    pub gather_max_segs: usize,
    /// Driver-suggested eager→rendezvous switch point in bytes.
    pub rdv_threshold: usize,
    /// Remote direct memory access available (zero-copy large path).
    pub supports_rdma: bool,
    /// Largest frame the driver accepts.
    pub mtu: usize,
}

/// Handle to an in-progress send, scoped to the driver that issued it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SendHandle(pub u64);

/// A received frame.
///
/// The payload is a shared [`Bytes`] buffer so the engine can hand
/// zero-copy slices of it to the matching layer (unexpected-message
/// queue, eager delivery) and recycle the buffer once every slice has
/// been consumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RxFrame {
    /// Source node.
    pub src: NodeId,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Driver-level failures.
#[derive(Debug)]
pub enum NetError {
    /// Peer went away / transport closed.
    Closed,
    /// Frame exceeds the driver MTU.
    FrameTooLarge {
        /// Offending frame length in bytes.
        len: usize,
        /// The driver's MTU in bytes.
        mtu: usize,
    },
    /// More gather segments than the hardware accepts — engine bug, the
    /// scheduler must stage-copy instead.
    TooManySegments {
        /// Gather entries requested.
        got: usize,
        /// Hardware maximum.
        max: usize,
    },
    /// Underlying I/O error (real transports).
    Io(std::io::Error),
    /// Peer sent bytes that do not decode as protocol frames.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "transport closed"),
            NetError::FrameTooLarge { len, mtu } => {
                write!(f, "frame of {len} bytes exceeds mtu {mtu}")
            }
            NetError::TooManySegments { got, max } => {
                write!(f, "{got} gather segments exceed hardware max {max}")
            }
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Result alias for driver operations.
pub type NetResult<T> = Result<T, NetError>;

/// Cumulative transmit-side link counters a driver reports for
/// observability. Drivers that do no accounting keep the all-zero
/// default; decorators (reliability layers) add their own counters on
/// top of the inner driver's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Nanoseconds the transmit side spent with a frame on the wire.
    pub busy_ns: u64,
    /// Nanoseconds the transmit side sat idle since initialisation.
    pub idle_ns: u64,
    /// Frames re-sent by a reliability layer.
    pub retransmits: u64,
    /// Acknowledgement frames sent by a reliability layer.
    pub acks: u64,
}

/// One frame-synthesis decision taken by a scheduling strategy,
/// reported through [`CpuMeter::note_decision`] so simulated transports
/// can trace scheduling behaviour alongside wire events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategyDecision {
    /// Name of the strategy that synthesized the frame.
    pub strategy: &'static str,
    /// Wire entries in the synthesized frame.
    pub entries: u32,
    /// Eager data entries among them.
    pub data_entries: u32,
    /// Rendezvous announcements among them.
    pub rts_entries: u32,
    /// Rendezvous grants among them.
    pub cts_entries: u32,
    /// Rendezvous payload chunks among them.
    pub chunk_entries: u32,
    /// Entries the strategy took out of submission order.
    pub reordered: u32,
}

/// A frame transport bound to one local node on one rail.
pub trait Driver: Send {
    /// Facts collected at initialisation.
    fn caps(&self) -> &Capabilities;

    /// The node this endpoint belongs to.
    fn local_node(&self) -> NodeId;

    /// Posts a gather send of the concatenation of `iov` towards `dst`.
    ///
    /// The driver may reject more than `caps().gather_max_segs` entries;
    /// the scheduler is responsible for staging copies when the
    /// hardware cannot gather.
    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle>;

    /// True once the send has left the host (frame buffers reusable).
    /// Polling an already-completed handle keeps returning true.
    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool>;

    /// Next delivered frame, if any. Non-blocking.
    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>>;

    /// True when the transmit side has no queued work — the signal the
    /// transfer layer uses to ask the scheduler for the next packet.
    fn tx_idle(&self) -> bool;

    /// Lets real transports move buffered bytes; simulated transports
    /// need no pump and use the default no-op.
    fn pump(&mut self) -> NetResult<()> {
        Ok(())
    }

    /// Cumulative transmit-side counters for observability. Drivers
    /// without accounting keep the all-zero default.
    fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }

    /// Installs a deterministic [`FaultPlan`] on this endpoint.
    ///
    /// Returns `true` if the driver consumes the plan (the simulated
    /// transports do; decorators forward to their inner driver). The
    /// default refuses: real transports cannot inject faults.
    fn install_faults(&mut self, _plan: FaultPlan) -> bool {
        false
    }

    /// Counters from an installed fault plan; all-zero when no plan is
    /// installed (or the driver does not support injection).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Endpoint-layer counters of connection-oriented transports
    /// (accepts, teardowns, readiness wakeups, backpressure stalls).
    /// Connectionless and simulated drivers keep the all-zero default;
    /// decorators forward to their inner driver.
    fn endpoint_stats(&self) -> EndpointStats {
        EndpointStats::default()
    }

    /// Engine-side backpressure signal: `true` parks receive-side
    /// progress (stop reading sockets) because the optimization window
    /// or the unexpected-message queue saturated; `false` resumes it.
    /// The kernel's transport flow control then pushes back on remote
    /// senders. Drivers without a receive side to park ignore it.
    fn set_rx_backpressure(&mut self, _paused: bool) {}

    /// True when this endpoint may be owned and polled by a background
    /// progression thread (the engine's threaded mode). Real transports
    /// are (`Driver: Send` and their pumps touch only their own state);
    /// the simulated driver overrides this to `false` — virtual time
    /// only advances through the co-simulation loop on the application
    /// thread, so it must stay inline to remain deterministic.
    fn threaded_progress_safe(&self) -> bool {
        true
    }

    /// The lock-free mirror slot that decides this endpoint's answers,
    /// if one does. A driver that returns `Some` promises, for as long
    /// as it would keep returning it:
    ///
    /// * `pump` does nothing;
    /// * `poll_recv` returns a frame exactly when the slot's inbox head
    ///   is due (`rx_ready_at() <= now_ns()`);
    /// * `tx_idle` is exactly `tx_free_at() <= now_ns()`;
    /// * a send completes (`test_send` returns `true`) exactly when the
    ///   clock reaches the `tx_free_at()` read right after its post.
    ///
    /// The engine takes the hint once per rail, when it is built or
    /// split and when [`install_faults`](Self::install_faults) changes
    /// the rail. After a pump that moved nothing, it answers the next
    /// pumps from the slot alone until one of those instants is
    /// reached. The default gives no hint, and the engine then pumps
    /// the driver in full every time. Decorators keep the default:
    /// their own state (retransmit timers, acknowledgements) changes
    /// answers the slot does not show.
    fn readiness(&self) -> Option<RailReadiness> {
        None
    }
}

/// Accounts engine CPU costs.
///
/// On the simulated transports this charges virtual time to the node's
/// CPU account so software costs (scheduler inspection, header packing,
/// staging copies) shape the measured curves exactly as they shaped the
/// paper's. On real transports it is a no-op: the cost is paid by
/// actually executing the code.
pub trait CpuMeter: Send {
    /// Accounts a fixed software cost of `ns` nanoseconds.
    fn charge_ns(&mut self, ns: u64);

    /// Accounts one memory copy of `bytes` bytes.
    fn charge_memcpy(&mut self, bytes: usize);

    /// Observes one strategy scheduling decision. Free (no virtual
    /// time is charged); simulated transports forward it to the event
    /// trace, real transports use the default no-op.
    fn note_decision(&mut self, _decision: &StrategyDecision) {}
}

/// Meter for real transports: executing the code *is* the cost.
#[derive(Default, Debug, Clone, Copy)]
pub struct NullMeter;

impl CpuMeter for NullMeter {
    fn charge_ns(&mut self, _ns: u64) {}
    fn charge_memcpy(&mut self, _bytes: usize) {}
}

impl Capabilities {
    /// Derives driver capabilities from a simulated NIC model.
    pub fn from_nic(model: &nmad_sim::NicModel) -> Self {
        Capabilities {
            name: model.name.to_string(),
            latency_ns: model.latency.as_ns(),
            bandwidth_bps: model.bandwidth_bps,
            gather_max_segs: model.gather_max_segs,
            rdv_threshold: model.rdv_threshold,
            supports_rdma: model.supports_rdma,
            mtu: model.mtu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_mirror_nic_model() {
        let caps = Capabilities::from_nic(&nmad_sim::nic::mx_myri10g());
        assert_eq!(caps.name, "MX/Myri-10G");
        assert_eq!(caps.gather_max_segs, 32);
        assert_eq!(caps.rdv_threshold, 32 * 1024);
        assert!(caps.supports_rdma);
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = NetError::FrameTooLarge { len: 10, mtu: 5 };
        assert!(e.to_string().contains("exceeds mtu"));
        let e = NetError::TooManySegments { got: 9, max: 4 };
        assert!(e.to_string().contains("gather"));
    }
}
