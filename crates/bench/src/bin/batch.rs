//! Hot-path batching benchmark (`BENCH_batch.json`).
//!
//! Two scenarios, each measuring the *fixed* per-operation cost the
//! engine's own machinery adds — the overhead the paper's §4 latency
//! figures require to stay negligible:
//!
//! * **submit_overhead** — wall-clock per op of posting a burst of
//!   receives to a threaded engine. `batch1` submits one op per ring
//!   slot with one doorbell each (the pre-batching path); `batch32`
//!   stages the burst through `ThreadedHandle::submit_batch` flushing
//!   every 32 ops, so slots carry `SLOT_OPS` ops per CAS and each
//!   flush rings one doorbell. Receive posts are the purest probe of
//!   the submission machinery: the op carries no payload, so nothing
//!   in the timed region allocates or copies message data — the
//!   number is id allocation + ring traffic + doorbell, which is
//!   exactly what batching amortizes.
//! * **submit_send** — the same burst shape with real 32-byte sends
//!   (completions drained off the clock). Reported for context: the
//!   per-op cost adds payload handling and, on small hosts, the
//!   progression thread's processing interleaves with submission, so
//!   the batching gain is diluted relative to `submit_overhead`.
//!
//! The derived `speedups` section records baseline/variant ratios; the
//! perf-gate CI job prints them next to `BENCH_baseline/` as context,
//! since both are two-thread wall-clock races (see `extract_batch` in
//! xtask's bench-diff).
//!
//! Run: `cargo run --release -p bench --bin batch [-- --quick]`

use std::time::Instant;

use bench::{median, BatchReport, BatchRow, Table, BENCH_BATCH_JSON_PATH};
use nmad_core::prelude::*;
use nmad_net::mem::mem_fabric;
use nmad_net::{MemDriver, NullMeter};
use nmad_sim::NodeId;

/// Sends submitted per timed burst.
const BURST: usize = 256;
/// Ops per flush on the batched variant.
const FLUSH_EVERY: usize = 32;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = bench::json_arg().unwrap_or_else(|| BENCH_BATCH_JSON_PATH.to_string());
    let reps = if quick { 5 } else { 11 };
    let report = BatchReport::new();

    println!("\n## hot-path batching — per-op overhead\n");
    let mut table = Table::new(vec!["bench", "variant", "ns/op", "ops", "speedup"]);

    // --- submit_overhead: threaded engine, burst of BURST recv posts ---
    let single_ns = submit_overhead(false, reps);
    let batched_ns = submit_overhead(true, reps);
    let submit_speedup = single_ns / batched_ns.max(f64::EPSILON);
    for (variant, ns, speedup) in [
        ("batch1", single_ns, String::new()),
        ("batch32", batched_ns, format!("{submit_speedup:.2}x")),
    ] {
        table.row(vec![
            "submit_overhead".to_string(),
            variant.to_string(),
            format!("{ns:.1}"),
            BURST.to_string(),
            speedup,
        ]);
        report.record(BatchRow {
            bench: "submit_overhead".to_string(),
            variant: variant.to_string(),
            ns_per_op: ns,
            ops: BURST as u64,
        });
    }
    report.record_speedup("submit_batch32_vs_batch1", submit_speedup);

    // --- submit_send: same burst shape, real sends, for context ---
    let send_single_ns = submit_send(false, reps);
    let send_batched_ns = submit_send(true, reps);
    let send_speedup = send_single_ns / send_batched_ns.max(f64::EPSILON);
    for (variant, ns, speedup) in [
        ("batch1", send_single_ns, String::new()),
        ("batch32", send_batched_ns, format!("{send_speedup:.2}x")),
    ] {
        table.row(vec![
            "submit_send".to_string(),
            variant.to_string(),
            format!("{ns:.1}"),
            BURST.to_string(),
            speedup,
        ]);
        report.record(BatchRow {
            bench: "submit_send".to_string(),
            variant: variant.to_string(),
            ns_per_op: ns,
            ops: BURST as u64,
        });
    }
    report.record_speedup("send_batch32_vs_batch1", send_speedup);

    table.print();
    report.write(&json);
}

fn engine(d: MemDriver) -> NmadEngine {
    NmadEngine::new(
        vec![Box::new(d)],
        Box::new(NullMeter),
        Box::new(StratAggreg),
        EngineCosts::zero(),
    )
}

/// Median ns per posted receive over `reps` bursts. A receive post is
/// the submission machinery with nothing else attached: no payload
/// allocation, no completion to drain. The first post of each run
/// keeps the progression thread awake (posted receives count as
/// outstanding work), so from there on the doorbell is its user-space
/// fast path for both variants and the delta is purely the per-op CAS
/// + doorbell the batch amortizes.
fn submit_overhead(batched: bool, reps: usize) -> f64 {
    let mut fabric = mem_fabric(2);
    let _sink = fabric.pop().expect("two");
    let init = ThreadedEngine::launch(engine(fabric.pop().expect("two")), EngineConfig::threaded());
    let h = init.handle();
    // Park-breaker: with one receive posted the progression thread
    // yields between pumps instead of parking, as it would in an
    // application with pre-posted receives.
    h.post_recv(NodeId(1), Tag(u32::MAX), 16);

    let mut per_op = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t0 = Instant::now();
        if batched {
            let mut batch = h.submit_batch();
            for i in 0..BURST {
                batch.post_recv(NodeId(1), Tag(i as u32), 64);
                if batch.pending() == FLUSH_EVERY {
                    batch.flush();
                }
            }
            batch.flush();
        } else {
            for i in 0..BURST {
                h.post_recv(NodeId(1), Tag(i as u32), 64);
            }
        }
        let elapsed = t0.elapsed();
        if rep > 0 {
            // Rep 0 is warmup: pools fill, threads stop parking.
            per_op.push(elapsed.as_nanos() as f64 / BURST as f64);
        }
        // Off the clock: let the progression thread drain the ring so
        // the next rep starts from an empty ring, not backpressure. The
        // snapshot request queues behind the burst on the same ring, so
        // it returns only once every post ahead of it was applied.
        let posted = h.metrics().engine.recvs_posted;
        assert_eq!(posted, ((rep + 1) * BURST) as u64 + 1, "drain barrier");
    }
    median(&per_op)
}

/// Median ns per submitted send over `reps` bursts. Only the
/// submission calls are on the clock; the drain (wait + take) runs
/// after it stops. Unlike [`submit_overhead`] this carries a real
/// payload per op and real engine work behind it.
fn submit_send(batched: bool, reps: usize) -> f64 {
    let mut fabric = mem_fabric(2);
    let sink = ThreadedEngine::launch(engine(fabric.pop().expect("two")), EngineConfig::threaded());
    let init = ThreadedEngine::launch(engine(fabric.pop().expect("two")), EngineConfig::threaded());
    let (h, sink_h) = (init.handle(), sink.handle());
    // Bytes, not Vec: cloning in the timed loop is a refcount bump,
    // the same for both variants, instead of a fresh allocation.
    let payload = bytes::Bytes::from(vec![0x5Au8; 32]);

    let mut per_op = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let recvs: Vec<_> = (0..BURST)
            .map(|i| sink_h.post_recv(NodeId(0), Tag(i as u32), 64))
            .collect();
        let t0 = Instant::now();
        let sends: Vec<_> = if batched {
            let mut batch = h.submit_batch();
            let mut sends = Vec::with_capacity(BURST);
            for i in 0..BURST {
                sends.push(batch.isend(NodeId(1), Tag(i as u32), payload.clone()));
                if batch.pending() == FLUSH_EVERY {
                    batch.flush();
                }
            }
            batch.flush();
            sends
        } else {
            (0..BURST)
                .map(|i| h.isend(NodeId(1), Tag(i as u32), payload.clone()))
                .collect()
        };
        let elapsed = t0.elapsed();
        h.wait_sends(&sends);
        let _ = sink_h.wait_recvs(&recvs);
        if rep > 0 {
            per_op.push(elapsed.as_nanos() as f64 / BURST as f64);
        }
    }
    median(&per_op)
}
