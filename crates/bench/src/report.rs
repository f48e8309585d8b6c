//! Machine-readable ping-pong reports (`BENCH_pingpong.json`).
//!
//! The figure binaries print markdown tables for humans; CI wants the
//! same numbers as JSON it can archive and diff across runs. Each row
//! is one sweep point: the median one-way latency over the repeats,
//! the frames per ping, and the zero-copy counters (staging copies,
//! gather sends, pool traffic) read from the initiator's engine at the
//! end of the run.

use crate::pingpong::PingPongSample;
use std::sync::{Mutex, OnceLock};

/// Default output path; every ping-pong-style binary writes here
/// unless `--bench-json PATH` overrides it.
pub const BENCH_JSON_PATH: &str = "BENCH_pingpong.json";

/// Value of a `--bench-json PATH` argument, or the default path.
pub fn bench_json_arg() -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--bench-json" {
            if let Some(path) = args.next() {
                return path;
            }
            eprintln!("--bench-json requires a path; using {BENCH_JSON_PATH}");
        }
    }
    BENCH_JSON_PATH.to_string()
}

/// One sweep point of one benchmark, flattened for JSON.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Benchmark label, e.g. `fig2/MX/Myri-10G` or `pingpong/mem`.
    pub bench: String,
    /// Engine or library under test, e.g. `madmpi(aggreg)`.
    pub engine: String,
    /// Message size in bytes.
    pub size: usize,
    /// Median one-way latency over the recorded repeats, µs.
    pub one_way_us_median: f64,
    /// Bandwidth of the median repeat, MB/s.
    pub bandwidth_mbs: f64,
    /// Wire frames the initiator sent per ping.
    pub frames_per_ping: f64,
    /// Frames that needed a staging copy (gather fallback).
    pub staging_copies: u64,
    /// Frames posted as multi-segment gather iovs.
    pub gather_sends: u64,
    /// Frame buffers served from the recycling pool.
    pub pool_hits: u64,
    /// Frame buffers freshly allocated.
    pub pool_misses: u64,
}

/// Thread-safe accumulator for [`BenchRow`]s; render with
/// [`to_json`](Self::to_json) or persist with [`write`](Self::write).
#[derive(Default)]
pub struct BenchReport {
    rows: Mutex<Vec<BenchRow>>,
}

/// Median of `values`; NaN-free inputs assumed (they are latencies).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

impl BenchReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sweep point from its repeat samples. The latency is
    /// the median across `samples`; counters come from the last repeat
    /// (they are cumulative over the engine's life).
    pub fn record(&self, bench: &str, engine: &str, size: usize, samples: &[PingPongSample]) {
        assert!(!samples.is_empty());
        let lats: Vec<f64> = samples.iter().map(|s| s.one_way_us).collect();
        let last = samples.last().expect("non-empty");
        let (staging, gather, hits, misses) = match &last.metrics {
            Some(m) => (
                m.wire.staging_copies,
                m.engine.gather_sends,
                m.engine.pool_hits,
                m.engine.pool_misses,
            ),
            None => (0, 0, 0, 0),
        };
        self.rows.lock().expect("report poisoned").push(BenchRow {
            bench: bench.to_string(),
            engine: engine.to_string(),
            size,
            one_way_us_median: median(&lats),
            bandwidth_mbs: last.bandwidth_mbs,
            frames_per_ping: last.frames_per_ping,
            staging_copies: staging,
            gather_sends: gather,
            pool_hits: hits,
            pool_misses: misses,
        });
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document, including the
    /// verification-coverage section (see [`VerifySummary`]).
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"benchmarks\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"bench\":\"{}\",\"engine\":\"{}\",\"size\":{},\
                 \"one_way_us_median\":{:.4},\"bandwidth_mbs\":{:.2},\
                 \"frames_per_ping\":{:.3},\"staging_copies\":{},\
                 \"gather_sends\":{},\"pool_hits\":{},\"pool_misses\":{}}}",
                escape(&r.bench),
                escape(&r.engine),
                r.size,
                r.one_way_us_median,
                r.bandwidth_mbs,
                r.frames_per_ping,
                r.staging_copies,
                r.gather_sends,
                r.pool_hits,
                r.pool_misses,
            ));
        }
        out.push_str("],\"verify\":");
        out.push_str(&VerifySummary::probe().to_json());
        out.push('}');
        out
    }

    /// Writes the report; failures are printed, never propagated (a
    /// benchmark must not die on a bad path).
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} bench rows to {path}", self.len()),
            Err(e) => eprintln!("could not write bench report {path}: {e}"),
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Verification coverage bundled into every bench report.
///
/// Performance numbers from the lock-free engine are only as good as
/// the engine's correctness, so each report records what the
/// verification layer covered when it was produced: how many distinct
/// schedules the nmad-verify coverage probe explored (and how many
/// states its dedup pruned), and how many rules the static analyzer
/// (`xtask analyze`) enforces. CI archives the report, so a
/// regression that guts the exploration shows up in the diff.
#[derive(Clone, Debug)]
pub struct VerifySummary {
    /// Distinct schedules the model-checking coverage probe explored.
    pub schedules_explored: u64,
    /// Scheduling subtrees pruned by state-hash dedup during the probe.
    pub states_deduped: u64,
    /// Deepest decision path over all explored executions.
    pub max_depth: usize,
    /// Rules in the `xtask analyze` catalog: the lexical rules plus
    /// the structural hot-path families.
    pub lint_rules: usize,
}

impl VerifySummary {
    /// Runs the nmad-verify coverage probe (once per process — the
    /// result is cached) and pairs it with the analyzer's rule count.
    pub fn probe() -> &'static VerifySummary {
        static PROBE: OnceLock<VerifySummary> = OnceLock::new();
        PROBE.get_or_init(|| {
            let stats = nmad_verify::coverage_probe();
            VerifySummary {
                schedules_explored: stats.schedules,
                states_deduped: stats.states_deduped,
                max_depth: stats.max_depth,
                lint_rules: nmad_verify::analyze::rule_catalog().len(),
            }
        })
    }

    /// The summary as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schedules_explored\":{},\"states_deduped\":{},\
             \"max_depth\":{},\"lint_rules\":{}}}",
            self.schedules_explored, self.states_deduped, self.max_depth, self.lint_rules,
        )
    }
}

/// Default output path of the computation/communication overlap
/// benchmark (`overlap` binary); `--json PATH` overrides it.
pub const BENCH_OVERLAP_JSON_PATH: &str = "BENCH_overlap.json";

/// One sweep point of the overlap benchmark: one progression mode at
/// one message size.
#[derive(Clone, Debug)]
pub struct OverlapRow {
    /// Progression mode under test: `inline` or `threaded`.
    pub mode: String,
    /// Message size in bytes.
    pub size: usize,
    /// Messages posted per round.
    pub msgs_per_round: usize,
    /// Reference communication cost: median drain of an inline round
    /// with no compute phase at this size, µs. Both modes of a size
    /// are scored against the same reference.
    pub comm_us: f64,
    /// Busy-compute phase injected between post and drain, µs.
    pub compute_us: f64,
    /// Median wall-clock of the full post→compute→drain round, µs.
    pub total_us: f64,
    /// Communication/computation overlap achieved: the share of the
    /// communication already finished when the compute phase ended,
    /// `clamp((comm_us - drain_us) / comm_us, 0..1) * 100`.
    pub overlap_pct: f64,
    /// Median latency from the end of the compute phase until every
    /// transfer completed, µs.
    pub drain_us: f64,
}

/// Thread-safe accumulator for [`OverlapRow`]s, rendered as one JSON
/// document (`BENCH_overlap.json`).
#[derive(Default)]
pub struct OverlapReport {
    rows: Mutex<Vec<OverlapRow>>,
}

impl OverlapReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sweep point.
    pub fn record(&self, row: OverlapRow) {
        self.rows.lock().expect("report poisoned").push(row);
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"overlap\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"mode\":\"{}\",\"size\":{},\"msgs_per_round\":{},\
                 \"comm_us\":{:.2},\"compute_us\":{:.2},\"total_us\":{:.2},\
                 \"overlap_pct\":{:.1},\"drain_us\":{:.2}}}",
                escape(&r.mode),
                r.size,
                r.msgs_per_round,
                r.comm_us,
                r.compute_us,
                r.total_us,
                r.overlap_pct,
                r.drain_us,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes the report; failures are printed, never propagated.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} overlap rows to {path}", self.len()),
            Err(e) => eprintln!("could not write overlap report {path}: {e}"),
        }
    }
}

/// Default output path of the hot-path batching benchmark (`batch`
/// binary); `--json PATH` overrides it.
pub const BENCH_BATCH_JSON_PATH: &str = "BENCH_batch.json";

/// One measurement of the batching benchmark: one variant (`batch=1`
/// or `batch=32` submission) of one scenario.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Scenario: `submit_overhead` or `submit_send`.
    pub bench: String,
    /// Variant within the scenario: `batch1` or `batch32`.
    pub variant: String,
    /// Cost per submitted operation, nanoseconds.
    pub ns_per_op: f64,
    /// Operations measured.
    pub ops: u64,
}

/// Accumulator for [`BatchRow`]s plus named speedup ratios derived
/// from them, rendered as one JSON document (`BENCH_batch.json`).
#[derive(Default)]
pub struct BatchReport {
    rows: Mutex<Vec<BatchRow>>,
    speedups: Mutex<Vec<(String, f64)>>,
}

impl BatchReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one measurement.
    pub fn record(&self, row: BatchRow) {
        self.rows.lock().expect("report poisoned").push(row);
    }

    /// Records a named speedup ratio (baseline time / variant time —
    /// higher is better, 1.0 is parity).
    pub fn record_speedup(&self, name: &str, ratio: f64) {
        self.speedups
            .lock()
            .expect("report poisoned")
            .push((name.to_string(), ratio));
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"batch\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"bench\":\"{}\",\"variant\":\"{}\",\
                 \"ns_per_op\":{:.2},\"ops\":{}}}",
                escape(&r.bench),
                escape(&r.variant),
                r.ns_per_op,
                r.ops,
            ));
        }
        out.push_str("],\"speedups\":{");
        let speedups = self.speedups.lock().expect("report poisoned");
        for (i, (name, ratio)) in speedups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.3}", escape(name), ratio));
        }
        out.push_str("}}");
        out
    }

    /// Writes the report; failures are printed, never propagated.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} batch rows to {path}", self.len()),
            Err(e) => eprintln!("could not write batch report {path}: {e}"),
        }
    }
}

/// Default output path of the shard-scaling benchmark (`shards`
/// binary); `--json PATH` overrides it.
pub const BENCH_SHARDS_JSON_PATH: &str = "BENCH_shards.json";

/// One point of the shard-scaling curve: the aggregate throughput of
/// one shard count over as many simulated rails.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Progression shards (== rails in this study).
    pub shards: usize,
    /// Simulated rails per node.
    pub rails: usize,
    /// Distinct (tag) flows hashed across the shards.
    pub flows: usize,
    /// Payload bytes moved node 0 → node 1.
    pub total_bytes: u64,
    /// Virtual time to move them, µs.
    pub virtual_us: f64,
    /// Aggregate throughput, MB/s of virtual time.
    pub throughput_mbs: f64,
}

/// Accumulator for [`ShardRow`]s plus named scaling ratios derived from
/// them, rendered as one JSON document (`BENCH_shards.json`).
#[derive(Default)]
pub struct ShardReport {
    rows: Mutex<Vec<ShardRow>>,
    scaling: Mutex<Vec<(String, f64)>>,
}

impl ShardReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one shard count's measurement.
    pub fn record(&self, row: ShardRow) {
        self.rows.lock().expect("report poisoned").push(row);
    }

    /// Records a named scaling ratio (n-shard throughput / 1-shard
    /// throughput — higher is better, 1.0 is parity).
    pub fn record_scaling(&self, name: &str, ratio: f64) {
        self.scaling
            .lock()
            .expect("report poisoned")
            .push((name.to_string(), ratio));
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"shards\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shards\":{},\"rails\":{},\"flows\":{},\
                 \"total_bytes\":{},\"virtual_us\":{:.2},\
                 \"throughput_mbs\":{:.2}}}",
                r.shards, r.rails, r.flows, r.total_bytes, r.virtual_us, r.throughput_mbs,
            ));
        }
        out.push_str("],\"scaling\":{");
        let scaling = self.scaling.lock().expect("report poisoned");
        for (i, (name, ratio)) in scaling.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.3}", escape(name), ratio));
        }
        out.push_str("}}");
        out
    }

    /// Writes the report; failures are printed, never propagated.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} shard rows to {path}", self.len()),
            Err(e) => eprintln!("could not write shard report {path}: {e}"),
        }
    }
}

/// Default output path of the massive-fanout endpoint benchmark
/// (`swarm` binary); `--json PATH` overrides it.
pub const BENCH_SWARM_JSON_PATH: &str = "BENCH_swarm.json";

/// One sweep point of the swarm benchmark: one connection count.
///
/// The two `*_events_*` columns are deterministic event counts from the
/// endpoint layer's readiness accounting and gate in CI; the wall-clock
/// columns (accept churn, echo latency percentiles) are context on a
/// shared runner.
#[derive(Clone, Debug)]
pub struct SwarmRow {
    /// Concurrent established connections at this sweep point.
    pub connections: usize,
    /// Readiness backend the endpoint used (`epoll` / `poll`).
    pub backend: String,
    /// Accept-churn throughput: connections fully handshaken per
    /// second of wall clock, from first dial to full fan-in.
    pub accepts_per_sec: f64,
    /// Echo one-way latency percentiles across the fanout, µs.
    pub ping_p50_us: f64,
    /// 99th percentile, µs.
    pub ping_p99_us: f64,
    /// 99.9th percentile, µs.
    pub ping_p999_us: f64,
    /// Readiness events per pump while every connection idles — the
    /// O(ready) property at rest: exactly 0.0 regardless of the
    /// connection count, or the pump is touching idle sockets.
    pub idle_events_per_pump: f64,
    /// Readiness events serviced per ready socket while exactly K of
    /// the N connections carry traffic — ~1.0 independent of N; the
    /// old linear scan would examine N/K sockets per ready one.
    pub probe_events_per_ready: f64,
}

/// Accumulator for [`SwarmRow`]s plus named probe ratios derived from
/// them, rendered as one JSON document (`BENCH_swarm.json`).
#[derive(Default)]
pub struct SwarmReport {
    rows: Mutex<Vec<SwarmRow>>,
    probes: Mutex<Vec<(String, f64)>>,
}

impl SwarmReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sweep point.
    pub fn record(&self, row: SwarmRow) {
        self.rows.lock().expect("report poisoned").push(row);
    }

    /// Records a named probe ratio (e.g. the per-ready-socket event
    /// cost at the largest fanout over the smallest — ~1.0 when pump
    /// cost is O(ready), ~N_max/N_min when it is O(held)).
    pub fn record_probe(&self, name: &str, ratio: f64) {
        self.probes
            .lock()
            .expect("report poisoned")
            .push((name.to_string(), ratio));
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"swarm\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"connections\":{},\"backend\":\"{}\",\
                 \"accepts_per_sec\":{:.1},\"ping_p50_us\":{:.2},\
                 \"ping_p99_us\":{:.2},\"ping_p999_us\":{:.2},\
                 \"idle_events_per_pump\":{:.4},\"probe_events_per_ready\":{:.4}}}",
                r.connections,
                escape(&r.backend),
                r.accepts_per_sec,
                r.ping_p50_us,
                r.ping_p99_us,
                r.ping_p999_us,
                r.idle_events_per_pump,
                r.probe_events_per_ready,
            ));
        }
        out.push_str("],\"probes\":{");
        let probes = self.probes.lock().expect("report poisoned");
        for (i, (name, ratio)) in probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.3}", escape(name), ratio));
        }
        out.push_str("}}");
        out
    }

    /// Writes the report; failures are printed, never propagated.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} swarm rows to {path}", self.len()),
            Err(e) => eprintln!("could not write swarm report {path}: {e}"),
        }
    }
}

/// Default output path of the heavy-tail multi-tenant benchmark
/// (`tail` binary); `--json PATH` overrides it.
pub const BENCH_TAIL_JSON_PATH: &str = "BENCH_tail.json";

/// One row of the tail benchmark: the full latency percentile ladder
/// of one tenant class under one strategy in one scenario.
///
/// All latencies are **virtual time** (deterministic simulator
/// nanoseconds, reported in µs), so every percentile — including
/// p99.99 — is bit-reproducible from the seed and can gate in CI.
#[derive(Clone, Debug)]
pub struct TailRow {
    /// Scenario: `mixed` (steady multi-tenant load) or `chaos`
    /// (same load with a seeded fault plan injected mid-run).
    pub scenario: String,
    /// Scheduling strategy under test (`aggreg`, `lanes`).
    pub strategy: String,
    /// Tenant class label (`urgent-small`, `normal-rpc`, `bulk`).
    pub class: String,
    /// Completed messages of this class.
    pub count: u64,
    /// Median completion latency, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// 99.99th percentile, µs.
    pub p9999_us: f64,
    /// Mean completion latency, µs.
    pub mean_us: f64,
}

/// Accumulator for [`TailRow`]s plus per-strategy aggregate throughput
/// and named cross-strategy ratios, rendered as one JSON document
/// (`BENCH_tail.json`).
#[derive(Default)]
pub struct TailReport {
    rows: Mutex<Vec<TailRow>>,
    throughput: Mutex<Vec<(String, f64)>>,
    ratios: Mutex<Vec<(String, f64)>>,
}

impl TailReport {
    /// Fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one class × strategy × scenario percentile ladder.
    pub fn record(&self, row: TailRow) {
        self.rows.lock().expect("report poisoned").push(row);
    }

    /// Records one strategy's aggregate goodput in a scenario,
    /// MB/s of virtual time (key e.g. `mixed/lanes`).
    pub fn record_throughput(&self, key: &str, mbs: f64) {
        self.throughput
            .lock()
            .expect("report poisoned")
            .push((key.to_string(), mbs));
    }

    /// Records a named cross-strategy ratio (e.g. the aggreg-over-lanes
    /// p99.9 of the urgent class — higher means lanes wins by more).
    pub fn record_ratio(&self, name: &str, ratio: f64) {
        self.ratios
            .lock()
            .expect("report poisoned")
            .push((name.to_string(), ratio));
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("report poisoned").len()
    }

    /// No rows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows = self.rows.lock().expect("report poisoned");
        let mut out = String::from("{\"tail\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"class\":\"{}\",\
                 \"count\":{},\"p50_us\":{:.3},\"p90_us\":{:.3},\"p99_us\":{:.3},\
                 \"p999_us\":{:.3},\"p9999_us\":{:.3},\"mean_us\":{:.3}}}",
                escape(&r.scenario),
                escape(&r.strategy),
                escape(&r.class),
                r.count,
                r.p50_us,
                r.p90_us,
                r.p99_us,
                r.p999_us,
                r.p9999_us,
                r.mean_us,
            ));
        }
        out.push_str("],\"throughput\":{");
        let tp = self.throughput.lock().expect("report poisoned");
        for (i, (name, mbs)) in tp.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.2}", escape(name), mbs));
        }
        out.push_str("},\"ratios\":{");
        let ratios = self.ratios.lock().expect("report poisoned");
        for (i, (name, ratio)) in ratios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{:.3}", escape(name), ratio));
        }
        out.push_str("}}");
        out
    }

    /// Writes the report; failures are printed, never propagated.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {} tail rows to {path}", self.len()),
            Err(e) => eprintln!("could not write tail report {path}: {e}"),
        }
    }
}

/// The `q`-th percentile (0.0..=1.0) of `values` by nearest-rank;
/// panics on an empty slice (a latency sample set is never empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(us: f64) -> PingPongSample {
        PingPongSample {
            one_way_us: us,
            bandwidth_mbs: 100.0,
            frames_per_ping: 1.0,
            metrics: None,
        }
    }

    #[test]
    fn batch_report_renders_rows_and_speedups_as_json() {
        let report = BatchReport::new();
        assert!(report.is_empty());
        report.record(BatchRow {
            bench: "submit_overhead".to_string(),
            variant: "batch32".to_string(),
            ns_per_op: 41.25,
            ops: 100_000,
        });
        report.record_speedup("submit_batch32_vs_batch1", 3.7);
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"submit_overhead\""));
        assert!(json.contains("\"variant\":\"batch32\""));
        assert!(json.contains("\"ns_per_op\":41.25"), "{json}");
        assert!(
            json.contains("\"submit_batch32_vs_batch1\":3.700"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn shard_report_renders_rows_and_scaling_as_json() {
        let report = ShardReport::new();
        assert!(report.is_empty());
        report.record(ShardRow {
            shards: 4,
            rails: 4,
            flows: 64,
            total_bytes: 16 << 20,
            virtual_us: 4200.5,
            throughput_mbs: 3993.81,
        });
        report.record_scaling("scale_4x_over_1x", 3.8);
        let json = report.to_json();
        assert!(json.contains("\"shards\":4"));
        assert!(json.contains("\"throughput_mbs\":3993.81"), "{json}");
        assert!(json.contains("\"scale_4x_over_1x\":3.800"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[3.0, 1.0], 0.0), 1.0);
    }

    #[test]
    fn swarm_report_renders_rows_and_probes_as_json() {
        let report = SwarmReport::new();
        assert!(report.is_empty());
        report.record(SwarmRow {
            connections: 10000,
            backend: "epoll".to_string(),
            accepts_per_sec: 4321.0,
            ping_p50_us: 18.5,
            ping_p99_us: 90.25,
            ping_p999_us: 240.75,
            idle_events_per_pump: 0.0,
            probe_events_per_ready: 1.0,
        });
        report.record_probe("ready_cost_10000_vs_64", 1.02);
        let json = report.to_json();
        assert!(json.contains("\"connections\":10000"));
        assert!(json.contains("\"backend\":\"epoll\""));
        assert!(json.contains("\"ping_p99_us\":90.25"), "{json}");
        assert!(json.contains("\"idle_events_per_pump\":0.0000"), "{json}");
        assert!(json.contains("\"probe_events_per_ready\":1.0000"), "{json}");
        assert!(json.contains("\"ready_cost_10000_vs_64\":1.020"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn overlap_report_renders_rows_as_json() {
        let report = OverlapReport::new();
        assert!(report.is_empty());
        report.record(OverlapRow {
            mode: "threaded".to_string(),
            size: 65536,
            msgs_per_round: 8,
            comm_us: 120.0,
            compute_us: 240.0,
            total_us: 250.0,
            overlap_pct: 91.7,
            drain_us: 10.0,
        });
        let json = report.to_json();
        assert!(json.contains("\"mode\":\"threaded\""));
        assert!(json.contains("\"size\":65536"));
        assert!(json.contains("\"overlap_pct\":91.7"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn tail_report_renders_rows_throughput_and_ratios_as_json() {
        let report = TailReport::new();
        assert!(report.is_empty());
        report.record(TailRow {
            scenario: "mixed".to_string(),
            strategy: "lanes".to_string(),
            class: "urgent-small".to_string(),
            count: 2000,
            p50_us: 3.2,
            p90_us: 6.1,
            p99_us: 11.0,
            p999_us: 18.75,
            p9999_us: 31.5,
            mean_us: 4.0,
        });
        report.record_throughput("mixed/lanes", 812.5);
        report.record_ratio("mixed/urgent-small/aggreg_p999_over_lanes", 4.5);
        let json = report.to_json();
        assert!(json.contains("\"scenario\":\"mixed\""));
        assert!(json.contains("\"strategy\":\"lanes\""));
        assert!(json.contains("\"class\":\"urgent-small\""));
        assert!(json.contains("\"p999_us\":18.750"), "{json}");
        assert!(json.contains("\"p9999_us\":31.500"), "{json}");
        assert!(json.contains("\"mixed/lanes\":812.50"), "{json}");
        assert!(
            json.contains("\"mixed/urgent-small/aggreg_p999_over_lanes\":4.500"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_includes_verification_coverage() {
        let report = BenchReport::new();
        report.record("pingpong/mem", "nmad(aggreg)", 64, &[sample(1.0)]);
        let json = report.to_json();
        assert!(
            json.contains("\"verify\":{\"schedules_explored\":"),
            "{json}"
        );
        assert!(json.contains("\"lint_rules\":"), "{json}");
        let v = VerifySummary::probe();
        assert!(v.schedules_explored > 0, "probe explored nothing: {v:?}");
        assert_eq!(
            v.lint_rules,
            nmad_verify::analyze::rule_catalog().len(),
            "{v:?}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_renders_rows_as_json() {
        let report = BenchReport::new();
        report.record(
            "pingpong/mem",
            "madmpi(aggreg)",
            64,
            &[sample(2.0), sample(1.0), sample(3.0)],
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"pingpong/mem\""));
        assert!(json.contains("\"size\":64"));
        assert!(json.contains("\"one_way_us_median\":2.0000"), "{json}");
        assert!(json.contains("\"staging_copies\":0"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
