//! Text rendering of simulation traces.
//!
//! Turns a [`Trace`] into a compact, human-readable
//! timeline — one line per event plus a per-node lane summary. Used when
//! debugging scheduling decisions ("why did this frame leave late?") and
//! in tests that want readable failure dumps.

use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};
use std::fmt::Write as _;

/// Renders the trace as one line per event:
/// `t+12.400us  n0 →n1 r0  send 1232B (arrives t+15.000us)`.
pub fn render_events(trace: &Trace) -> String {
    let mut out = String::new();
    for ev in trace.events() {
        let _ = match &ev.event {
            TraceEvent::Send {
                src,
                dst,
                rail,
                bytes,
                deliver_at,
            } => writeln!(
                out,
                "{:>14}  {src} →{dst} {rail}  send {bytes}B (arrives {deliver_at})",
                ev.time.to_string()
            ),
            TraceEvent::Deliver {
                dst,
                src,
                rail,
                bytes,
            } => writeln!(
                out,
                "{:>14}  {dst} ←{src} {rail}  recv {bytes}B",
                ev.time.to_string()
            ),
            TraceEvent::CpuCharge { node, dur } => {
                writeln!(out, "{:>14}  {node}        cpu  {dur}", ev.time.to_string())
            }
            TraceEvent::StrategyDecision {
                node,
                strategy,
                entries,
                reordered,
            } => writeln!(
                out,
                "{:>14}  {node}        plan {strategy}: {entries} entries ({reordered} reordered)",
                ev.time.to_string()
            ),
        };
    }
    out
}

/// Per-node activity summary over the traced interval.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// Node the event belongs to.
    pub node: u32,
    /// Wire frames sent.
    pub frames_sent: usize,
    /// Wire frames received.
    pub frames_received: usize,
    /// Wire payload bytes sent in the whole world.
    pub bytes_sent: usize,
    /// Payload bytes received.
    pub bytes_received: usize,
    /// Number of CPU charges recorded.
    pub cpu_charges: usize,
    /// Strategy frame-synthesis decisions recorded.
    pub decisions: usize,
}

/// Aggregates the trace into per-node summaries, ordered by node id.
pub fn summarize(trace: &Trace) -> Vec<NodeSummary> {
    use std::collections::BTreeMap;
    let mut map: BTreeMap<u32, NodeSummary> = BTreeMap::new();
    let entry = |map: &mut BTreeMap<u32, NodeSummary>, node: u32| {
        map.entry(node).or_insert(NodeSummary {
            node,
            frames_sent: 0,
            frames_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
            cpu_charges: 0,
            decisions: 0,
        });
    };
    for ev in trace.events() {
        match &ev.event {
            TraceEvent::Send { src, bytes, .. } => {
                entry(&mut map, src.0);
                let s = map.get_mut(&src.0).expect("inserted");
                s.frames_sent += 1;
                s.bytes_sent += bytes;
            }
            TraceEvent::Deliver { dst, bytes, .. } => {
                entry(&mut map, dst.0);
                let s = map.get_mut(&dst.0).expect("inserted");
                s.frames_received += 1;
                s.bytes_received += bytes;
            }
            TraceEvent::CpuCharge { node, .. } => {
                entry(&mut map, node.0);
                map.get_mut(&node.0).expect("inserted").cpu_charges += 1;
            }
            TraceEvent::StrategyDecision { node, .. } => {
                entry(&mut map, node.0);
                map.get_mut(&node.0).expect("inserted").decisions += 1;
            }
        }
    }
    map.into_values().collect()
}

/// Renders the summaries as an aligned table.
pub fn render_summary(trace: &Trace) -> String {
    let mut out = String::from("node  tx-frames  tx-bytes  rx-frames  rx-bytes  cpu-ops\n");
    for s in summarize(trace) {
        let _ = writeln!(
            out,
            "n{:<4} {:>9}  {:>8}  {:>9}  {:>8}  {:>7}",
            s.node, s.frames_sent, s.bytes_sent, s.frames_received, s.bytes_received, s.cpu_charges
        );
    }
    out
}

/// Span between the first and last traced event (whole-run makespan).
pub fn makespan(trace: &Trace) -> Option<(SimTime, SimTime)> {
    let first = trace.events().first()?.time;
    let last = trace.events().last()?.time;
    Some((first, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::topo::{NodeId, RailId};

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.push(
            SimTime::from_ns(1_000),
            TraceEvent::CpuCharge {
                node: NodeId(0),
                dur: SimDuration::from_ns(500),
            },
        );
        t.push(
            SimTime::from_ns(2_000),
            TraceEvent::Send {
                src: NodeId(0),
                dst: NodeId(1),
                rail: RailId(0),
                bytes: 128,
                deliver_at: SimTime::from_ns(5_000),
            },
        );
        t.push(
            SimTime::from_ns(5_000),
            TraceEvent::Deliver {
                dst: NodeId(1),
                src: NodeId(0),
                rail: RailId(0),
                bytes: 128,
            },
        );
        t
    }

    #[test]
    fn events_render_one_line_each() {
        let text = render_events(&sample_trace());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("send 128B"));
        assert!(lines[2].contains("recv 128B"));
    }

    #[test]
    fn summary_accumulates_per_node() {
        let summaries = summarize(&sample_trace());
        assert_eq!(summaries.len(), 2);
        let n0 = &summaries[0];
        assert_eq!((n0.node, n0.frames_sent, n0.bytes_sent), (0, 1, 128));
        assert_eq!(n0.cpu_charges, 1);
        let n1 = &summaries[1];
        assert_eq!(
            (n1.node, n1.frames_received, n1.bytes_received),
            (1, 1, 128)
        );
    }

    #[test]
    fn summary_table_renders_header_and_rows() {
        let table = render_summary(&sample_trace());
        assert!(table.starts_with("node"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn makespan_covers_first_to_last() {
        let (a, b) = makespan(&sample_trace()).unwrap();
        assert_eq!(a, SimTime::from_ns(1_000));
        assert_eq!(b, SimTime::from_ns(5_000));
        assert!(makespan(&Trace::default()).is_none());
    }
}
