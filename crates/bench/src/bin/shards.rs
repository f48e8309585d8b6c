//! Shard-scaling study: aggregate throughput of split engines as the
//! shard count grows 1 → 8.
//!
//! Each shard count `n` stands up two nodes with `n` identical
//! simulated rails, splits each node's engine into `n` split engines
//! (`NmadEngine::split_for_shards`, `ShardPolicy::HashByDest`),
//! and pushes a fixed fleet of flows through: every flow hashes to one
//! shard on both nodes and rides that shard's rails. With the total
//! byte volume held constant, aggregate throughput (bytes over virtual
//! time) grows with the rail/shard count — the scaling curve this
//! benchmark emits.
//!
//! The shards are **co-simulated inline** on one OS thread: the
//! discrete-event simulator owns virtual time, so progression threads
//! would add nothing but nondeterminism. What is measured is exactly
//! what shard routing delivers: per-flow rail affinity with no
//! cross-shard contention. The curve measures rails more than splits:
//! one unsplit engine over the same rails scales as well (DESIGN.md
//! §14).
//!
//! Results land in `BENCH_shards.json` (override with `--json PATH`);
//! `cargo run -p xtask -- bench-diff` gates the scaling ratios against
//! the committed baseline.
//!
//! Run: `cargo run --release -p bench --bin shards [-- --quick]`

use bench::{fmt_size, ShardReport, ShardRow, Table, BENCH_SHARDS_JSON_PATH};
use nmad_core::prelude::*;
use nmad_core::ShardPolicy;
use nmad_net::sim::SimDriver;
use nmad_net::Driver;
use nmad_sim::{host, nic, run_until, shared_world, NodeId, SharedWorld, SimConfig};
use std::ops::ControlFlow;

/// Distinct flows (tags) hashed across the shards. Large enough that
/// even 8 shards each own several flows with near-certainty.
const FLOWS: usize = 64;

/// Shard counts swept, in order; the curve is 1 → 8.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = bench::json_arg().unwrap_or_else(|| BENCH_SHARDS_JSON_PATH.to_string());
    // 128 KiB crosses the sim NIC's rendezvous threshold, so throughput
    // is bandwidth-dominated and the rail count is what moves it.
    let (msgs_per_flow, size) = if quick {
        (1, 32 * 1024)
    } else {
        (2, 128 * 1024)
    };
    let report = ShardReport::new();

    println!(
        "\n## shard scaling — sim fabric, {FLOWS} flows x {msgs_per_flow} msgs of {}\n",
        fmt_size(size)
    );
    let mut table = Table::new(vec![
        "shards",
        "rails",
        "total",
        "virtual time (us)",
        "throughput (MB/s)",
        "scaling",
    ]);
    let mut base_mbs = 0.0;
    for n in SHARD_COUNTS {
        let row = run_shards(n, msgs_per_flow, size);
        if n == 1 {
            base_mbs = row.throughput_mbs;
        } else {
            report.record_scaling(
                &format!("scale_{n}x_over_1x"),
                row.throughput_mbs / base_mbs,
            );
        }
        table.row(vec![
            format!("{n}"),
            format!("{}", row.rails),
            fmt_size(row.total_bytes as usize),
            format!("{:.1}", row.virtual_us),
            format!("{:.0}", row.throughput_mbs),
            format!("{:.2}x", row.throughput_mbs / base_mbs),
        ]);
        report.record(row);
    }
    table.print();
    println!(
        "\n- every flow hashes to one shard on both nodes, so `n` shards drive `n`\n  \
         rails concurrently: the curve should grow monotonically towards `n`x."
    );
    report.write(&json);
}

/// Builds one node's engine over all its simulated rails.
fn engine(world: &SharedWorld, node: NodeId) -> NmadEngine {
    let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(world, node)
        .into_iter()
        .map(|d| Box::new(d) as Box<dyn Driver>)
        .collect();
    let meter = Box::new(nmad_net::SimCpuMeter::new(world.clone(), node));
    NmadEngine::new(
        drivers,
        meter,
        Box::new(StratAggreg),
        EngineCosts::from_software(&host::costs_madmpi()),
    )
}

/// One shard count: `n` rails per node, `n` shard engines per node,
/// the full flow fleet pushed through, throughput from virtual time.
fn run_shards(n: usize, msgs_per_flow: usize, size: usize) -> ShardRow {
    let world = shared_world(SimConfig::two_nodes_multirail(vec![nic::mx_myri10g(); n]));
    let policy = ShardPolicy::HashByDest;
    let split = |e: NmadEngine| -> Vec<NmadEngine> {
        if n > 1 {
            e.split_for_shards(n, policy)
        } else {
            vec![e]
        }
    };
    let mut senders = split(engine(&world, NodeId(0)));
    let mut sinks = split(engine(&world, NodeId(1)));

    // Each flow lives on the shard the routing hash picks — the same
    // index on both nodes, so its frames arrive where its receives are.
    let shard_of = |tag: u32| policy.route(n, NodeId(0), NodeId(1), Tag(tag));
    let mut recvs = Vec::new();
    let mut sends = Vec::new();
    let payload = vec![0x5Au8; size];
    let t0 = world.lock().now();
    for msg in 0..msgs_per_flow {
        for tag in 0..FLOWS as u32 {
            let s = shard_of(tag);
            recvs.push((s, sinks[s].post_recv(NodeId(0), Tag(tag), size)));
            sends.push((s, senders[s].isend(NodeId(1), Tag(tag), payload.clone())));
            let _ = msg;
        }
    }

    // Inline co-simulation: poll every shard of both nodes; when the
    // whole fleet is quiescent, advance virtual time to the next event.
    run_until(&world, || {
        let mut moved = false;
        for e in senders.iter_mut().chain(sinks.iter_mut()) {
            moved |= e.progress_until_idle();
        }
        if sends.iter().all(|&(s, r)| senders[s].is_send_done(r))
            && recvs.iter().all(|&(s, r)| sinks[s].is_recv_done(r))
        {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .unwrap_or_else(|e| panic!("shard co-simulation at n={n}: {e}"));
    for (s, r) in recvs.drain(..) {
        sinks[s].try_take_recv(r);
    }

    let virtual_us = world.lock().now().saturating_since(t0).as_us_f64();
    let msgs = FLOWS * msgs_per_flow;
    let total_bytes = (msgs * size) as u64;
    let pumps: u64 = senders
        .iter()
        .chain(&sinks)
        .map(|e| e.engine_metrics().pumps)
        .sum();
    let advances = world.lock().stats().advances;
    ShardRow {
        shards: n,
        rails: n,
        flows: FLOWS,
        total_bytes,
        virtual_us,
        throughput_mbs: total_bytes as f64 / virtual_us.max(f64::EPSILON),
        pumps_per_msg: pumps as f64 / msgs as f64,
        advances_per_msg: advances as f64 / msgs as f64,
    }
}
