//! Engine-wide observability: cheap counters every layer reports into.
//!
//! The engine is a polled, single-threaded state machine, so the hot
//! counters are plain `u64` cells bumped inline — no atomics, no locks
//! on the progress path. Synchronisation appears only at the API
//! boundary: [`MetricsRegistry`] guards its collected snapshots with a
//! `parking_lot` mutex so harnesses can gather reports from wherever
//! benchmark loops run.
//!
//! Three layers feed the counters:
//!
//! * the **collect layer** counts submitted requests, enqueued bytes
//!   and the optimization window's occupancy high-water mark;
//! * the **scheduling layer** counts synthesized frames, aggregated
//!   entries (their ratio is the paper's headline aggregation metric),
//!   reorder decisions and the eager/rendezvous split;
//! * the **transfer layer** contributes per-NIC [`LinkStats`]
//!   (busy/idle wire time, retransmits, acks) straight from the
//!   drivers.

use crate::engine::EngineStats;
use nmad_net::{EndpointStats, LinkStats};
use parking_lot::Mutex;
use std::fmt::Write as _;

/// Plain-cell counters the engine bumps inline on the progress path.
///
/// All counters are cumulative since engine construction and only ever
/// increase (the high-water mark is monotone too: it ratchets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Send requests accepted by the collect layer.
    pub requests_submitted: u64,
    /// Receive requests posted to the matching table.
    pub recvs_posted: u64,
    /// Payload bytes enqueued into the optimization window.
    pub bytes_enqueued: u64,
    /// Most segments ever resident in the optimization window at once.
    pub window_depth_hwm: u64,
    /// Frames the strategy synthesized (successful posts only).
    pub frames_synthesized: u64,
    /// Wire entries carried by those frames.
    pub entries_aggregated: u64,
    /// Eager data entries among them.
    pub eager_entries: u64,
    /// Rendezvous entries among them (RTS + CTS + chunks).
    pub rendezvous_entries: u64,
    /// Entries a strategy pulled out of submission order.
    pub reorder_decisions: u64,
    /// Rails whose driver refused a send and was marked dead.
    pub rail_faults: u64,
    /// Plan entries handed back to the window after a rail fault
    /// (both the refused frame and stranded in-flight frames).
    pub requeued_entries: u64,
    /// Duplicate wire entries the matching layer discarded
    /// (retransmissions and conservative failover requeues).
    pub duplicates_dropped: u64,
    /// CTS entries for already-granted or completed rendezvous
    /// transfers, ignored instead of treated as protocol errors.
    pub stale_cts_ignored: u64,
    /// Frames posted as multi-segment gather iovs (the NIC DMA-
    /// gathered them; no staging copy was paid).
    pub gather_sends: u64,
    /// Frame buffers served from the recycling pool.
    pub pool_hits: u64,
    /// Frame buffers freshly allocated because the pool was empty.
    pub pool_misses: u64,
    /// Receive-side bytes actually memcpy'd (rendezvous reassembly
    /// without RDMA; eager paths are zero-copy slices).
    pub bytes_copied_rx: u64,
    /// Progress pumps that ran in full: every `try_progress` call
    /// except those the quiet check answered from the drivers'
    /// readiness slots.
    pub pumps: u64,
    /// Connections accepted and handshaken by connection-oriented
    /// drivers (summed across rails at snapshot time).
    pub ep_accepts: u64,
    /// Inbound connections dropped during their handshake.
    pub ep_handshake_failures: u64,
    /// Established connections torn down.
    pub ep_teardowns: u64,
    /// Readiness polls that woke with at least one event.
    pub ep_readiness_wakeups: u64,
    /// Per-socket readiness events serviced — O(ready), not O(held).
    pub ep_sockets_polled: u64,
    /// Readiness events that produced no progress.
    pub ep_spurious_wakeups: u64,
    /// Receive-side pauses for backpressure (socket backlog caps plus
    /// engine saturation signals).
    pub ep_backpressure_stalls: u64,
}

impl EngineMetrics {
    /// Ratchets the window high-water mark.
    pub fn observe_window_depth(&mut self, depth: usize) {
        self.window_depth_hwm = self.window_depth_hwm.max(depth as u64);
    }

    /// Overwrites the endpoint-layer counters from the drivers'
    /// cumulative [`EndpointStats`] (summed across rails by the caller
    /// at snapshot time — the drivers own these counters, the engine
    /// only mirrors them).
    pub fn set_endpoint(&mut self, s: &EndpointStats) {
        self.ep_accepts = s.accepts;
        self.ep_handshake_failures = s.handshake_failures;
        self.ep_teardowns = s.teardowns;
        self.ep_readiness_wakeups = s.readiness_wakeups;
        self.ep_sockets_polled = s.sockets_polled;
        self.ep_spurious_wakeups = s.spurious_wakeups;
        self.ep_backpressure_stalls = s.backpressure_stalls;
    }

    /// Mean wire entries per synthesized frame — the aggregation ratio
    /// of the paper's §5.1 experiment. `0.0` before any frame leaves.
    pub fn aggregation_ratio(&self) -> f64 {
        if self.frames_synthesized == 0 {
            0.0
        } else {
            self.entries_aggregated as f64 / self.frames_synthesized as f64
        }
    }
}

/// One NIC's transfer-layer counters, labeled with the driver name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NicMetrics {
    /// Technology name from the driver capabilities.
    pub name: String,
    /// Cumulative link counters reported by the driver.
    pub link: LinkStats,
}

/// A point-in-time copy of every observable counter of one engine.
///
/// Cheap to take (a handful of copies plus one driver call per NIC)
/// and fully detached from the engine afterwards.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Name of the scheduling strategy driving the engine.
    pub strategy: &'static str,
    /// Collect- and scheduling-layer counters.
    pub engine: EngineMetrics,
    /// Wire-level counters (frames/entries actually sent and received).
    pub wire: EngineStats,
    /// Per-NIC transfer-layer counters, in rail order.
    pub nics: Vec<NicMetrics>,
}

impl MetricsSnapshot {
    /// Mean wire entries per synthesized frame. See
    /// [`EngineMetrics::aggregation_ratio`].
    pub fn aggregation_ratio(&self) -> f64 {
        self.engine.aggregation_ratio()
    }

    /// Renders the snapshot as one machine-readable JSON object.
    pub fn to_json(&self) -> String {
        let e = &self.engine;
        let w = &self.wire;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"strategy\":{},\"collect\":{{\"requests_submitted\":{},\"recvs_posted\":{},\
             \"bytes_enqueued\":{},\"window_depth_hwm\":{}}},\
             \"scheduling\":{{\"frames_synthesized\":{},\"entries_aggregated\":{},\
             \"aggregation_ratio\":{:.4},\"eager_entries\":{},\"rendezvous_entries\":{},\
             \"reorder_decisions\":{}}},\
             \"faults\":{{\"rail_faults\":{},\"requeued_entries\":{},\
             \"duplicates_dropped\":{},\"stale_cts_ignored\":{}}},\
             \"zero_copy\":{{\"gather_sends\":{},\"pool_hits\":{},\"pool_misses\":{},\
             \"bytes_copied_rx\":{}}},\"progress\":{{\"pumps\":{}}},\
             \"endpoint\":{{\"accepts\":{},\"handshake_failures\":{},\"teardowns\":{},\
             \"readiness_wakeups\":{},\"sockets_polled\":{},\"spurious_wakeups\":{},\
             \"backpressure_stalls\":{}}},\
             \"wire\":{{\"frames_sent\":{},\"frames_received\":{},\"data_entries\":{},\
             \"rts_entries\":{},\"cts_entries\":{},\"chunk_entries\":{},\"staging_copies\":{},\
             \"credit_stalls\":{},\"credit_frames\":{}}},\"nics\":[",
            json_string(self.strategy),
            e.requests_submitted,
            e.recvs_posted,
            e.bytes_enqueued,
            e.window_depth_hwm,
            e.frames_synthesized,
            e.entries_aggregated,
            e.aggregation_ratio(),
            e.eager_entries,
            e.rendezvous_entries,
            e.reorder_decisions,
            e.rail_faults,
            e.requeued_entries,
            e.duplicates_dropped,
            e.stale_cts_ignored,
            e.gather_sends,
            e.pool_hits,
            e.pool_misses,
            e.bytes_copied_rx,
            e.pumps,
            e.ep_accepts,
            e.ep_handshake_failures,
            e.ep_teardowns,
            e.ep_readiness_wakeups,
            e.ep_sockets_polled,
            e.ep_spurious_wakeups,
            e.ep_backpressure_stalls,
            w.frames_sent,
            w.frames_received,
            w.data_entries,
            w.rts_entries,
            w.cts_entries,
            w.chunk_entries,
            w.staging_copies,
            w.credit_stalls,
            w.credit_frames,
        );
        for (i, nic) in self.nics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"busy_ns\":{},\"idle_ns\":{},\"retransmits\":{},\"acks\":{}}}",
                json_string(&nic.name),
                nic.link.busy_ns,
                nic.link.idle_ns,
                nic.link.retransmits,
                nic.link.acks,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Thread-safe collection of labeled snapshots, rendered as one JSON
/// report. The lock lives here — at the API boundary — not in the
/// engine's counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, MetricsSnapshot)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `snapshot` under `label` (e.g. `"fig2/aggreg/4096B"`).
    pub fn record(&self, label: impl Into<String>, snapshot: MetricsSnapshot) {
        self.entries.lock().push((label.into(), snapshot));
    }

    /// Number of recorded snapshots.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Renders every recorded snapshot as one JSON array of
    /// `{"label": ..., "metrics": {...}}` objects, in record order.
    pub fn to_json(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::from("[");
        for (i, (label, snap)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"metrics\":{}}}",
                json_string(label),
                snap.to_json()
            );
        }
        out.push(']');
        out
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two range
/// splits into `2^LOG_HIST_SUB_BITS` linear sub-buckets, bounding the
/// relative quantile error at `2^-LOG_HIST_SUB_BITS` (~3.1%).
const LOG_HIST_SUB_BITS: u32 = 5;

const LOG_HIST_SUBS: usize = 1 << LOG_HIST_SUB_BITS;

/// Bucket count covering the full `u64` range: the linear region plus
/// one sub-bucket row per remaining exponent (59 rows for exponents
/// 0 through 58 — the top value `u64::MAX` lands in row 58).
const LOG_HIST_BUCKETS: usize = LOG_HIST_SUBS * (64 - LOG_HIST_SUB_BITS as usize + 1);

/// HDR-style log-bucketed histogram over `u64` values.
///
/// Fixed memory, allocation-free recording: values bucket by their
/// binary exponent with 32 linear sub-buckets per octave, so any
/// quantile is reproduced within ~3.1% relative error across the
/// entire `u64` range — exactly what full-percentile latency reporting
/// (p50 through p99.99) needs without keeping every sample. Exact min
/// and max are tracked on the side so the extreme quantiles never
/// drift outside the observed range.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Box<[u64; LOG_HIST_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram (one fixed allocation, never grows).
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0u64; LOG_HIST_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < LOG_HIST_SUBS as u64 {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as usize - LOG_HIST_SUB_BITS as usize;
            let mantissa = (v >> e) as usize - LOG_HIST_SUBS;
            LOG_HIST_SUBS + e * LOG_HIST_SUBS + mantissa
        }
    }

    /// Lower bound of bucket `i` — the conservative representative
    /// value reported for quantiles landing in it.
    fn bucket_value(i: usize) -> u64 {
        if i < LOG_HIST_SUBS {
            i as u64
        } else {
            let e = (i - LOG_HIST_SUBS) / LOG_HIST_SUBS;
            let m = (i - LOG_HIST_SUBS) % LOG_HIST_SUBS;
            ((LOG_HIST_SUBS + m) as u64) << e
        }
    }

    /// Records one value. O(1), no allocation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` (e.g. 0.999 for p99.9):
    /// the smallest bucket bound such that at least `q * count`
    /// recorded values are at or below it, clamped to the exact
    /// observed `[min, max]`. Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter holds a distinct non-zero value, numbered in
    /// declaration order (25 engine, 9 wire, 4 link counters), so a
    /// dropped, renamed or swapped key changes the rendered JSON.
    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            strategy: "aggreg",
            engine: EngineMetrics {
                requests_submitted: 1,
                recvs_posted: 2,
                bytes_enqueued: 3,
                window_depth_hwm: 4,
                frames_synthesized: 5,
                entries_aggregated: 6,
                eager_entries: 7,
                rendezvous_entries: 8,
                reorder_decisions: 9,
                rail_faults: 10,
                requeued_entries: 11,
                duplicates_dropped: 12,
                stale_cts_ignored: 13,
                gather_sends: 14,
                pool_hits: 15,
                pool_misses: 16,
                bytes_copied_rx: 17,
                pumps: 18,
                ep_accepts: 19,
                ep_handshake_failures: 20,
                ep_teardowns: 21,
                ep_readiness_wakeups: 22,
                ep_sockets_polled: 23,
                ep_spurious_wakeups: 24,
                ep_backpressure_stalls: 25,
            },
            wire: EngineStats {
                frames_sent: 26,
                frames_received: 27,
                data_entries: 28,
                rts_entries: 29,
                cts_entries: 30,
                chunk_entries: 31,
                staging_copies: 32,
                credit_stalls: 33,
                credit_frames: 34,
            },
            nics: vec![NicMetrics {
                name: "MX/\"Myri-10G\"".to_string(),
                link: LinkStats {
                    busy_ns: 35,
                    idle_ns: 36,
                    retransmits: 37,
                    acks: 38,
                },
            }],
        }
    }

    #[test]
    fn aggregation_ratio_handles_zero_frames() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.aggregation_ratio(), 0.0);
        m.frames_synthesized = 2;
        m.entries_aggregated = 8;
        assert_eq!(m.aggregation_ratio(), 4.0);
    }

    #[test]
    fn window_hwm_ratchets() {
        let mut m = EngineMetrics::default();
        m.observe_window_depth(3);
        m.observe_window_depth(1);
        assert_eq!(m.window_depth_hwm, 3);
        m.observe_window_depth(9);
        assert_eq!(m.window_depth_hwm, 9);
    }

    #[test]
    fn snapshot_json_is_complete_and_escaped() {
        // The whole rendering, key by key: the quote inside the NIC name
        // is escaped, and aggregation_ratio is entries/frames = 6/5.
        let expected = concat!(
            r#"{"strategy":"aggreg","#,
            r#""collect":{"requests_submitted":1,"recvs_posted":2,"bytes_enqueued":3,"#,
            r#""window_depth_hwm":4},"#,
            r#""scheduling":{"frames_synthesized":5,"entries_aggregated":6,"#,
            r#""aggregation_ratio":1.2000,"eager_entries":7,"rendezvous_entries":8,"#,
            r#""reorder_decisions":9},"#,
            r#""faults":{"rail_faults":10,"requeued_entries":11,"duplicates_dropped":12,"#,
            r#""stale_cts_ignored":13},"#,
            r#""zero_copy":{"gather_sends":14,"pool_hits":15,"pool_misses":16,"#,
            r#""bytes_copied_rx":17},"progress":{"pumps":18},"#,
            r#""endpoint":{"accepts":19,"handshake_failures":20,"teardowns":21,"#,
            r#""readiness_wakeups":22,"sockets_polled":23,"spurious_wakeups":24,"#,
            r#""backpressure_stalls":25},"#,
            r#""wire":{"frames_sent":26,"frames_received":27,"data_entries":28,"#,
            r#""rts_entries":29,"cts_entries":30,"chunk_entries":31,"staging_copies":32,"#,
            r#""credit_stalls":33,"credit_frames":34},"#,
            r#""nics":[{"name":"MX/\"Myri-10G\"","busy_ns":35,"idle_ns":36,"#,
            r#""retransmits":37,"acks":38}]}"#,
        );
        assert_eq!(sample().to_json(), expected);
    }

    #[test]
    fn registry_renders_labeled_array() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.to_json(), "[]");
        reg.record("fig2/aggreg/64B", sample());
        reg.record("fig2/default/64B", sample());
        assert_eq!(reg.len(), 2);
        let json = reg.to_json();
        assert!(json.starts_with("[{\"label\":\"fig2/aggreg/64B\","));
        assert!(json.contains("\"label\":\"fig2/default/64B\""));
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn set_endpoint_mirrors_every_driver_counter() {
        let mut m = EngineMetrics::default();
        m.set_endpoint(&EndpointStats {
            accepts: 1,
            handshake_failures: 2,
            teardowns: 3,
            readiness_wakeups: 4,
            sockets_polled: 5,
            spurious_wakeups: 6,
            backpressure_stalls: 7,
        });
        assert_eq!(
            (
                m.ep_accepts,
                m.ep_handshake_failures,
                m.ep_teardowns,
                m.ep_readiness_wakeups,
                m.ep_sockets_polled,
                m.ep_spurious_wakeups,
                m.ep_backpressure_stalls,
            ),
            (1, 2, 3, 4, 5, 6, 7)
        );
    }

    #[test]
    fn log_histogram_buckets_are_monotone_and_tight() {
        // Index is monotone in the value, and the bucket's lower bound
        // is within the guaranteed relative error of the value.
        let mut values: Vec<u64> = (0..4096).collect();
        for shift in 12..64u32 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p + 1, p + (p >> 3), p + (p >> 1)]);
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let i = LogHistogram::bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(i < LOG_HIST_BUCKETS, "index {i} out of range at {v}");
            let lo = LogHistogram::bucket_value(i);
            assert!(lo <= v, "bucket lower bound {lo} above value {v}");
            assert!(
                (v - lo) as f64 <= v as f64 / LOG_HIST_SUBS as f64 + 1.0,
                "bucket error too large at {v}: lower bound {lo}"
            );
        }
    }

    #[test]
    fn log_histogram_quantiles_within_error_bound() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (1.0, 10_000)] {
            let got = h.value_at_quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.04, "p{q}: got {got}, exact {exact}, err {err:.4}");
        }
        assert_eq!(h.value_at_quantile(0.0), 1, "p0 is the exact minimum");
    }

    #[test]
    fn log_histogram_empty_zero_and_outlier() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);

        let mut a = LogHistogram::new();
        a.record(0);
        assert_eq!(a.value_at_quantile(0.5), 0, "zero values are representable");
        for _ in 0..999 {
            a.record(100);
        }
        a.record(1_000_000);
        assert_eq!(a.count(), 1001);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 1_000_000);
        // The outlier is invisible at p50 but dominates p99.99.
        assert!(a.value_at_quantile(0.5) <= 100);
        let tail = a.value_at_quantile(0.9999);
        assert!(
            (tail as f64 - 1_000_000.0).abs() / 1_000_000.0 <= 0.04,
            "p99.99 missed the outlier: {tail}"
        );
    }
}
