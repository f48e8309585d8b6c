//! Lossy-fabric extension study: the engine over frame loss, comparing
//! the two reliability decorators — go-back-N versus selective repeat —
//! across a sweep of loss rates.
//!
//! Reports, per loss rate and protocol: virtual completion time of a
//! fixed mixed workload (an aggregated burst plus one 64,000 B bulk
//! message, which is under `tcp_gige`'s 64 KiB rendezvous threshold
//! and so travels eager: each run sends 2 data frames and no RTS) and
//! the wire amplification (bytes on the wire / application payload
//! bytes), which exposes each protocol's retransmission cost. Below
//! the table it prints, from the same rows, which protocol completed
//! first at each loss rate and by what ratio.
//!
//! Run: `cargo run --release -p bench --bin lossy`

use bench::Table;
use nmad_core::prelude::*;
use nmad_net::sim::SimDriver;
use nmad_net::{Driver, LossyDriver, ReliableDriver, SelectiveDriver, SimCpuMeter};
use nmad_sim::{nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig, SimTime};
use std::ops::ControlFlow;

// One retransmission timeout for both protocols, so the table compares
// protocols rather than timeouts: about twice the modelled round trip
// of the workload's largest frame (64,000 B at 110 MB/s is ~0.58 ms of
// serialization, plus 2 x 45 us of latency).
const RTO_NS: u64 = 1_500_000;
const BURST: u32 = 40;
const BURST_BYTES: usize = 512;
const BULK_BYTES: usize = 64_000;
// Seeds per (loss rate, protocol) point: 8 seeds gave the opposite
// verdict from 256 at 20 % and 30 % loss, and 256 still keep the whole
// sweep under two seconds.
const SEEDS: u64 = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Protocol {
    GoBackN,
    SelectiveRepeat,
}

fn engine(world: &SharedWorld, node: u32, loss: f64, seed: u64, proto: Protocol) -> NmadEngine {
    let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let lossy = LossyDriver::new(raw, loss, seed);
    let cw = world.clone();
    let ww = world.clone();
    let now: Box<dyn Fn() -> u64 + Send> = Box::new(move || cw.lock().now().as_ns());
    let wake: Box<dyn Fn(u64) + Send> =
        Box::new(move |t| ww.lock().schedule_wakeup(SimTime::from_ns(t)));
    let driver: Box<dyn Driver> = match proto {
        Protocol::GoBackN => Box::new(ReliableDriver::new(lossy, now, Some(wake), RTO_NS)),
        Protocol::SelectiveRepeat => Box::new(SelectiveDriver::new(lossy, now, Some(wake), RTO_NS)),
    };
    let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
    NmadEngine::new(
        vec![driver],
        meter,
        Box::new(StratAggreg),
        EngineCosts::zero(),
    )
}

fn run(loss: f64, seed: u64, proto: Protocol) -> (f64, f64) {
    let world = shared_world(SimConfig::two_nodes(nic::tcp_gige()));
    let mut a = engine(
        &world,
        0,
        loss,
        0x1234 ^ seed.wrapping_mul(0x9E3779B97F4A7C15),
        proto,
    );
    let mut b = engine(
        &world,
        1,
        loss,
        0x5678 ^ seed.wrapping_mul(0xD1B54A32D192ED03),
        proto,
    );

    let sends: Vec<_> = (0..BURST)
        .map(|i| a.isend(NodeId(1), Tag(i), vec![i as u8; BURST_BYTES]))
        .collect();
    let bulk: Vec<u8> = (0..BULK_BYTES).map(|i| (i % 251) as u8).collect();
    let s_bulk = a.isend(NodeId(1), Tag(100), bulk.clone());
    let recvs: Vec<_> = (0..BURST)
        .map(|i| b.post_recv(NodeId(0), Tag(i), BURST_BYTES))
        .collect();
    let r_bulk = b.post_recv(NodeId(0), Tag(100), BULK_BYTES);

    run_until(&world, || {
        let moved = a.progress() | b.progress();
        let all = sends.iter().all(|&s| a.is_send_done(s))
            && a.is_send_done(s_bulk)
            && recvs.iter().all(|&r| b.is_recv_done(r))
            && b.is_recv_done(r_bulk);
        if all {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .unwrap_or_else(|e| panic!("at loss {loss}: {e}"));
    assert_eq!(b.try_take_recv(r_bulk).expect("bulk").data, bulk);

    let w = world.lock();
    let app_bytes = (BURST as usize * BURST_BYTES + BULK_BYTES) as f64;
    let amplification = w.stats().bytes_sent as f64 / app_bytes;
    (w.now().as_us_f64(), amplification)
}

fn main() {
    println!("\n## Engine over a lossy GigE-class fabric: go-back-N vs selective repeat\n");
    println!(
        "workload: {BURST} x {BURST_BYTES} B burst + one {BULK_BYTES} B eager bulk message\n(under the 64 KiB rendezvous threshold), averaged over {SEEDS} seeds\n"
    );
    let mut table = Table::new(vec![
        "loss rate",
        "GBN compl (us)",
        "SR compl (us)",
        "GBN wire amp",
        "SR wire amp",
    ]);
    // Mean completion time per loss rate: (loss, go-back-N us, SR us).
    let mut completion = Vec::new();
    for loss in [0.0, 0.02, 0.05, 0.10, 0.20, 0.30] {
        let mut sums = [(0.0, 0.0), (0.0, 0.0)];
        for (i, proto) in [Protocol::GoBackN, Protocol::SelectiveRepeat]
            .into_iter()
            .enumerate()
        {
            for seed in 0..SEEDS {
                let (us, amp) = run(loss, seed, proto);
                sums[i].0 += us;
                sums[i].1 += amp;
            }
        }
        let n = SEEDS as f64;
        let (gbn_us, sr_us) = (sums[0].0 / n, sums[1].0 / n);
        completion.push((loss, gbn_us, sr_us));
        table.row(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{gbn_us:.0}"),
            format!("{sr_us:.0}"),
            format!("{:.2}x", sums[0].1 / n),
            format!("{:.2}x", sums[1].1 / n),
        ]);
    }
    table.print();
    // The verdict is computed from the rows above so it cannot drift
    // from the table: which protocol completed first, and by how much.
    println!("\nfirst to complete, per loss rate:");
    for (loss, gbn, sr) in completion {
        let verdict = if gbn.round() == sr.round() {
            "tie".to_string()
        } else if sr < gbn {
            format!("selective repeat, {:.2}x faster", gbn / sr)
        } else {
            format!("go-back-N, {:.2}x faster", sr / gbn)
        };
        println!("- {:>3.0}% loss: {verdict}", loss * 100.0);
    }
}
