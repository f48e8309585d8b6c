//! Heavy-tail multi-tenant latency study: full-percentile completion
//! latency (p50 → p99.99) per tenant class under competing scheduling
//! strategies.
//!
//! Three tenant classes ([`TailSpec::multi_tenant`]) — small urgent
//! messages, mid-size normal RPCs, and heavy-tailed Pareto bulk
//! transfers — share a two-node fabric of 4 rails run as 4 progression
//! shards. Arrivals are a Poisson process stamped in virtual
//! nanoseconds; each message is released into the engine exactly when
//! the simulated clock reaches its arrival stamp, and its latency is
//! the virtual time from that stamp to receive completion. Everything
//! is deterministic, so even p99.99 is bit-reproducible from the seed
//! and can gate in CI.
//!
//! Strategies compared: the paper's `aggreg` (FIFO aggregation, the
//! baseline) and `lanes` (strict priority lanes with aging, per-tenant
//! deficits and contended rendezvous admission). The headline ratio is
//! the urgent class's p99.9 under `aggreg` over `lanes`: lanes lets
//! small urgent traffic jump multi-hundred-KB bulk queues, which is
//! worth orders of magnitude at the tail.
//!
//! The `chaos` scenario replays the same workload with a seeded
//! [`FaultPlan`] latency spike injected mid-run on every sender rail —
//! the tail ordering between strategies must survive a fabric brownout.
//!
//! Results land in `BENCH_tail.json` (override with `--json PATH`);
//! `cargo run -p xtask -- bench-diff` gates the percentile rows and the
//! cross-strategy ratios against the committed baseline.
//!
//! Run: `cargo run --release -p bench --bin tail [-- --quick]`

use bench::{generate_tail, Table, TailItem, TailReport, TailRow, TailSpec, BENCH_TAIL_JSON_PATH};
use mad_mpi::StrategyKind;
use nmad_core::prelude::*;
use nmad_core::{LogHistogram, ShardPolicy};
use nmad_net::sim::SimDriver;
use nmad_net::{Driver, FaultPlan};
use nmad_sim::{host, nic, run_until, shared_world, NodeId, SharedWorld, SimConfig, SimTime};
use std::ops::ControlFlow;

/// Rails per node; each is owned by one split engine.
const SHARDS: usize = 4;

/// Strategies swept, baseline first.
const STRATEGIES: [StrategyKind; 2] = [StrategyKind::Aggreg, StrategyKind::Lanes];

/// Extra per-frame latency during the chaos brownout window, ns.
const CHAOS_SPIKE_NS: u64 = 30_000;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = bench::json_arg().unwrap_or_else(|| BENCH_TAIL_JSON_PATH.to_string());
    let messages = if quick { 2_000 } else { 12_000 };
    let spec = TailSpec::multi_tenant(messages, 0xA11CE);
    let report = TailReport::new();

    for (scenario, faults) in [("mixed", false), ("chaos", true)] {
        println!(
            "\n## tail latency — {scenario}, {} msgs, {} classes, {SHARDS} shards\n",
            messages,
            spec.classes.len()
        );
        let mut table = Table::new(vec![
            "strategy",
            "class",
            "count",
            "p50 us",
            "p90 us",
            "p99 us",
            "p99.9 us",
            "p99.99 us",
            "MB/s",
        ]);
        // Per strategy: (per-class histograms, aggregate throughput).
        let mut p999 = vec![vec![0.0f64; spec.classes.len()]; STRATEGIES.len()];
        let mut mbs = vec![0.0f64; STRATEGIES.len()];
        for (si, kind) in STRATEGIES.into_iter().enumerate() {
            let strat = kind.name();
            let run = run_tail(kind, &spec, faults);
            mbs[si] = run.throughput_mbs;
            report.record_throughput(&format!("{scenario}/{strat}"), run.throughput_mbs);
            for (ci, class) in spec.classes.iter().enumerate() {
                let h = &run.hists[ci];
                let row = TailRow {
                    scenario: scenario.to_string(),
                    strategy: strat.to_string(),
                    class: class.name.to_string(),
                    count: h.count(),
                    p50_us: us(h.value_at_quantile(0.50)),
                    p90_us: us(h.value_at_quantile(0.90)),
                    p99_us: us(h.value_at_quantile(0.99)),
                    p999_us: us(h.value_at_quantile(0.999)),
                    p9999_us: us(h.value_at_quantile(0.9999)),
                    mean_us: h.mean() / 1_000.0,
                    pumps_per_msg: run.pumps_per_msg,
                    advances_per_msg: run.advances_per_msg,
                };
                p999[si][ci] = row.p999_us;
                table.row(vec![
                    strat.to_string(),
                    class.name.to_string(),
                    format!("{}", row.count),
                    format!("{:.1}", row.p50_us),
                    format!("{:.1}", row.p90_us),
                    format!("{:.1}", row.p99_us),
                    format!("{:.1}", row.p999_us),
                    format!("{:.1}", row.p9999_us),
                    format!("{:.0}", run.throughput_mbs),
                ]);
                report.record(row);
            }
        }
        table.print();

        // Cross-strategy ratios (higher = the tail-aware strategy wins
        // by more); bench-diff gates these against the baseline.
        let base = STRATEGIES
            .iter()
            .position(|&k| k == StrategyKind::Aggreg)
            .expect("baseline present");
        for (si, strat) in STRATEGIES.map(StrategyKind::name).into_iter().enumerate() {
            if si == base {
                continue;
            }
            for (ci, class) in spec.classes.iter().enumerate() {
                report.record_ratio(
                    &format!("{scenario}/{}/aggreg_p999_over_{strat}", class.name),
                    p999[base][ci] / p999[si][ci].max(f64::EPSILON),
                );
            }
            report.record_ratio(
                &format!("{scenario}/{strat}_throughput_over_aggreg"),
                mbs[si] / mbs[base].max(f64::EPSILON),
            );
        }
    }

    println!();
    report.write(&json);
}

/// Nanoseconds → microseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// One strategy's completion-latency histograms, one per tenant class,
/// plus aggregate goodput and simulator cost over the run.
struct TailRun {
    hists: Vec<LogHistogram>,
    throughput_mbs: f64,
    pumps_per_msg: f64,
    advances_per_msg: f64,
}

/// Builds one node's engine over all its simulated rails.
fn engine(world: &SharedWorld, node: NodeId, kind: StrategyKind) -> NmadEngine {
    let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(world, node)
        .into_iter()
        .map(|d| Box::new(d) as Box<dyn Driver>)
        .collect();
    let meter = Box::new(nmad_net::SimCpuMeter::new(world.clone(), node));
    NmadEngine::new(
        drivers,
        meter,
        kind.build(),
        EngineCosts::from_software(&host::costs_madmpi()),
    )
}

/// Replays the generated arrival trace through a sharded two-node
/// fabric under `kind`, co-simulated inline on one OS thread. Each
/// item is submitted when virtual time reaches its stamp; latency is
/// stamp → receive completion in virtual nanoseconds.
fn run_tail(kind: StrategyKind, spec: &TailSpec, faults: bool) -> TailRun {
    let items = generate_tail(spec);
    let world = shared_world(SimConfig::two_nodes_multirail(vec![
        nic::mx_myri10g();
        SHARDS
    ]));
    let policy = ShardPolicy::HashByDest;
    let mut senders = engine(&world, NodeId(0), kind).split_for_shards(SHARDS, policy);
    let mut sinks = engine(&world, NodeId(1), kind).split_for_shards(SHARDS, policy);
    if faults {
        // Seeded brownout: every sender rail slows mid-run, from the
        // first-quartile arrival stamp to the median one.
        let from = items[items.len() / 4].at_ns;
        let to = items[items.len() / 2].at_ns;
        for s in &mut senders {
            assert!(
                s.install_faults(
                    0,
                    FaultPlan::new(0xFA17).latency_spike(from, to, CHAOS_SPIKE_NS)
                ),
                "sim driver rejected the fault plan"
            );
        }
    }
    let shard_of = |tag: u32| policy.route(SHARDS, NodeId(0), NodeId(1), Tag(tag));

    let mut hists: Vec<LogHistogram> = (0..spec.classes.len())
        .map(|_| LogHistogram::new())
        .collect();
    let mut outstanding: Vec<(usize, RecvReqId, &TailItem)> = Vec::new();
    let mut next = 0usize;
    let mut total_bytes = 0u64;
    let t0 = world.lock().now();
    let mut last_done = t0;

    run_until(&world, || {
        // Release every arrival the clock has reached.
        let now_ns = world.lock().now().as_ns();
        while next < items.len() && items[next].at_ns <= now_ns {
            let it = &items[next];
            let s = shard_of(it.tag);
            let req = sinks[s].post_recv(NodeId(0), Tag(it.tag), it.len);
            let payload = bytes::Bytes::from(bench::payload_for(next, it.len));
            senders[s].submit_send_parts(
                NodeId(1),
                Tag(it.tag),
                vec![(payload, it.priority)],
                None,
            );
            outstanding.push((s, req, it));
            total_bytes += it.len as u64;
            next += 1;
        }

        let mut moved = false;
        for e in senders.iter_mut().chain(sinks.iter_mut()) {
            moved |= e.progress_until_idle();
        }

        // Reap completions at the instant their delivering event fired.
        let now = world.lock().now();
        let mut i = 0;
        while i < outstanding.len() {
            let (s, req, it) = outstanding[i];
            if sinks[s].is_recv_done(req) {
                sinks[s].try_take_recv(req);
                hists[it.class].record(now.as_ns().saturating_sub(it.at_ns));
                last_done = now;
                outstanding.swap_remove(i);
            } else {
                i += 1;
            }
        }

        if next == items.len() && outstanding.is_empty() {
            return ControlFlow::Break(());
        }
        if !moved && next < items.len() {
            // The clock must stop at the next arrival stamp.
            world
                .lock()
                .schedule_wakeup(SimTime::from_ns(items[next].at_ns));
        }
        ControlFlow::Continue(moved)
    })
    .unwrap_or_else(|e| panic!("tail co-simulation under {}: {e}", kind.name()));

    let elapsed = last_done.saturating_since(t0);
    let msgs = items.len() as f64;
    let pumps: u64 = senders
        .iter()
        .chain(&sinks)
        .map(|e| e.engine_metrics().pumps)
        .sum();
    let advances = world.lock().stats().advances;
    TailRun {
        hists,
        throughput_mbs: total_bytes as f64 / elapsed.as_us_f64().max(f64::EPSILON),
        pumps_per_msg: pumps as f64 / msgs,
        advances_per_msg: advances as f64 / msgs,
    }
}
