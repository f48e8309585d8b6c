//! Ping-pong smoke benchmark over the `mem` and `sim` drivers.
//!
//! CI's perf-smoke job runs this to watch the zero-copy transmit path:
//! on a gather-capable NIC every multi-entry frame must post as a
//! multi-segment iov (`gather_sends > 0`, `staging_copies == 0`), and
//! steady-state frame buffers must come from the recycling pool
//! (`pool_hits` ≫ `pool_misses`). Results land in
//! `BENCH_pingpong.json` (override with `--bench-json PATH`).
//!
//! Run: `cargo run --release -p bench --bin pingpong [-- --quick]`

use bench::{bench_json_arg, fmt_size, BenchReport, PingPongSample, Table};
use mad_mpi::{EngineKind, StrategyKind};
use nmad_core::prelude::*;
use nmad_net::mem::mem_fabric;
use nmad_net::NullMeter;
use nmad_sim::{nic, NodeId};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = bench_json_arg();
    let reps = if quick { 1 } else { 3 };
    let iters = if quick { 2 } else { 8 };
    let sizes = [16usize, 256, 4 * 1024, 64 * 1024];
    // The mem rows are wall clock, so they always warm up first and
    // time enough round trips to hide a fresh engine's first-touch
    // costs; the sim rows keep `iters`, their virtual time is exact.
    let (mem_warmup, mem_iters) = (10, 100);
    let report = BenchReport::new();

    println!("\n## ping-pong smoke — sim driver (MX/Myri-10G, aggreg)\n");
    let mut table = Table::new(vec![
        "size",
        "one-way (us)",
        "gather",
        "staged",
        "pool hit/miss",
    ]);
    for &size in &sizes {
        let samples: Vec<PingPongSample> = (0..reps)
            .map(|_| {
                bench::pingpong_contig(
                    EngineKind::MadMpi(StrategyKind::Aggreg),
                    nic::mx_myri10g(),
                    size,
                    iters,
                )
            })
            .collect();
        report.record("pingpong/sim/MX/Myri-10G", "madmpi(aggreg)", size, &samples);
        table.row(row_for(size, &samples));
    }
    table.print();

    println!("\n## ping-pong smoke — mem driver (in-process, aggreg)\n");
    let mut table = Table::new(vec![
        "size",
        "one-way (us)",
        "gather",
        "staged",
        "pool hit/miss",
    ]);
    for &size in &sizes {
        let samples: Vec<PingPongSample> = (0..reps)
            .map(|_| pingpong_mem(size, mem_warmup, mem_iters))
            .collect();
        report.record("pingpong/mem", "nmad(aggreg)", size, &samples);
        table.row(row_for(size, &samples));
    }
    table.print();

    report.write(&json);
}

fn row_for(size: usize, samples: &[PingPongSample]) -> Vec<String> {
    let lats: Vec<f64> = samples.iter().map(|s| s.one_way_us).collect();
    let last = samples.last().expect("non-empty");
    let (gather, staged, hits, misses) = match &last.metrics {
        Some(m) => (
            m.engine.gather_sends,
            m.wire.staging_copies,
            m.engine.pool_hits,
            m.engine.pool_misses,
        ),
        None => (0, 0, 0, 0),
    };
    vec![
        fmt_size(size),
        format!("{:.2}", bench::median(&lats)),
        format!("{gather}"),
        format!("{staged}"),
        format!("{hits}/{misses}"),
    ]
}

/// Ping-pong over the in-process `mem` driver: two real engines, wall
/// clock time. `warmup` untimed round trips precede the `iters` timed
/// ones. Latency here includes host scheduling noise — CI treats it as
/// a smoke signal, not a paper figure.
fn pingpong_mem(size: usize, warmup: usize, iters: usize) -> PingPongSample {
    let mut fabric = mem_fabric(2);
    let d1 = fabric.pop().expect("two endpoints");
    let d0 = fabric.pop().expect("two endpoints");
    let mk = |d: nmad_net::MemDriver| {
        NmadEngine::new(
            vec![Box::new(d)],
            Box::new(NullMeter),
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    };
    let (mut a, mut b) = (mk(d0), mk(d1));
    let payload = vec![0x5Au8; size];
    for _ in 0..warmup {
        round_trip(&mut a, &mut b, &payload);
    }

    let t0 = std::time::Instant::now();
    let frames0 = a.stats().frames_sent;
    for _ in 0..iters {
        round_trip(&mut a, &mut b, &payload);
    }
    let one_way_us = t0.elapsed().as_secs_f64() * 1e6 / (2.0 * iters as f64);
    let frames = (a.stats().frames_sent - frames0) as f64;
    PingPongSample {
        one_way_us,
        bandwidth_mbs: size as f64 / one_way_us,
        frames_per_ping: frames / iters as f64,
        metrics: Some(a.metrics()),
    }
}

/// One mem ping-pong round trip: `a` sends `payload`, `b` echoes it.
fn round_trip(a: &mut NmadEngine, b: &mut NmadEngine, payload: &[u8]) {
    let size = payload.len();
    let r_pong = a.post_recv(NodeId(1), Tag(0), size);
    let r_ping = b.post_recv(NodeId(0), Tag(0), size);
    let _s = a.isend(NodeId(1), Tag(0), payload.to_vec());
    while !b.is_recv_done(r_ping) {
        a.progress();
        b.progress();
    }
    let echo = b.try_take_recv(r_ping).expect("tested").data;
    let _s2 = b.isend(NodeId(0), Tag(0), echo);
    while !a.is_recv_done(r_pong) {
        a.progress();
        b.progress();
    }
    a.try_take_recv(r_pong);
}
