//! `nmadctl` — command-line driver for the NewMadeleine reproduction.
//!
//! Runs individual experiments against the simulated cluster without
//! writing any code:
//!
//! ```console
//! $ nmadctl caps                            # NIC capability records
//! $ nmadctl pingpong --nic mx --size 4K     # fig.2-style point
//! $ nmadctl burst --nic quadrics --segs 16 --size 64
//! $ nmadctl datatype --nic mx --pairs 4
//! $ nmadctl trace --nic mx --size 2K        # event timeline of one ping
//! ```
//!
//! Build/run: `cargo run --release --bin nmadctl -- <command> [flags]`

use bench::{pingpong_contig, pingpong_multiseg, pingpong_typed};
use newmadeleine::core::prelude::*;
use newmadeleine::mpi::{Datatype, EngineKind, StrategyKind};
use newmadeleine::net::sim::SimDriver;
use newmadeleine::sim::{
    nic, run_until, shared_world, timeline, Deadlock, NicModel, NodeId, RailId, SharedWorld,
    SimConfig, SimTime,
};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: nmadctl <command> [--flag value]...

commands:
  caps                         print every NIC model's capability record
  pingpong                     single-segment ping-pong (fig. 2 point)
      --nic <name> --size <bytes> [--impl <name>] [--strategy <name>] [--iters N]
  burst                        multi-segment ping-pong (fig. 3 point)
      --nic <name> --segs <n> --size <bytes> [--impl ...] [--strategy ...] [--iters N]
  datatype                     indexed-datatype transfer (fig. 4 point)
      --nic <name> --pairs <n> [--small <bytes>] [--large <bytes>] [--impl ...]
  trace                        one traced ping with event timeline
      --nic <name> --size <bytes> [--strategy <name>]
  lossy                        ping across a lossy fabric + reliability
      --loss <pct> [--proto gbn|sr] [--size <bytes>] [--seed <n>]

names:
  --nic      mx | quadrics | gm | sisci | tcpmodel
  --impl     madmpi (default) | mpich | openmpi
  --strategy aggreg (default) | default | reorder | multirail | dynamic | lanes
sizes accept suffixes: 4K, 2M"
    );
    std::process::exit(2)
}

fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mul) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1024),
        'm' | 'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mul)
}

fn parse_nic(name: &str) -> Option<NicModel> {
    Some(match name {
        "mx" => nic::mx_myri10g(),
        "quadrics" => nic::quadrics_qm500(),
        "gm" => nic::gm_myrinet2000(),
        "sisci" => nic::sisci_sci(),
        "tcpmodel" => nic::tcp_gige(),
        _ => return None,
    })
}

fn parse_impl(name: &str, strategy: StrategyKind) -> Option<EngineKind> {
    Some(match name {
        "madmpi" => EngineKind::MadMpi(strategy),
        "mpich" => EngineKind::Mpich,
        "openmpi" => EngineKind::Ompi,
        _ => return None,
    })
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--")?;
            let value = it.next()?;
            map.insert(key.to_string(), value.clone());
        }
        Some(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn size(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| parse_size(v).unwrap_or_else(|| usage()))
            .unwrap_or(default)
    }

    fn num(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    }

    fn nic(&self) -> NicModel {
        self.get("nic")
            .map(|v| parse_nic(v).unwrap_or_else(|| usage()))
            .unwrap_or_else(nic::mx_myri10g)
    }

    fn strategy(&self) -> StrategyKind {
        self.get("strategy")
            .map(|v| StrategyKind::parse(v).unwrap_or_else(|| usage()))
            .unwrap_or(StrategyKind::Aggreg)
    }

    fn kind(&self) -> EngineKind {
        let strategy = self.strategy();
        self.get("impl")
            .map(|v| parse_impl(v, strategy).unwrap_or_else(|| usage()))
            .unwrap_or(EngineKind::MadMpi(strategy))
    }
}

fn cmd_caps() {
    for model in nic::all_presets() {
        println!("{}:", model.name);
        println!("  one-way latency : {}", model.latency);
        println!(
            "  bandwidth       : {:.0} MB/s",
            model.bandwidth_bps as f64 / 1e6
        );
        println!("  tx post cost    : {}", model.tx_overhead);
        println!("  rx consume cost : {}", model.rx_overhead);
        println!("  gather entries  : {}", model.gather_max_segs);
        println!("  rdv threshold   : {} B", model.rdv_threshold);
        println!("  rdma            : {}", model.supports_rdma);
        if model.mtu == usize::MAX {
            println!("  mtu             : unlimited");
        } else {
            println!("  mtu             : {} B", model.mtu);
        }
    }
}

fn cmd_pingpong(flags: &Flags) {
    let size = flags.size("size", 1024);
    let iters = flags.num("iters", 3);
    let sample = pingpong_contig(flags.kind(), flags.nic(), size, iters);
    println!("one-way latency : {:.2} us", sample.one_way_us);
    println!("bandwidth       : {:.1} MB/s", sample.bandwidth_mbs);
    println!("frames per ping : {:.1}", sample.frames_per_ping);
}

fn cmd_burst(flags: &Flags) {
    let size = flags.size("size", 64);
    let segs = flags.num("segs", 8);
    let iters = flags.num("iters", 3);
    let sample = pingpong_multiseg(flags.kind(), flags.nic(), segs, size, iters);
    println!(
        "one-way latency : {:.2} us ({segs} x {size} B)",
        sample.one_way_us
    );
    println!("frames per ping : {:.1}", sample.frames_per_ping);
}

fn cmd_datatype(flags: &Flags) {
    let small = flags.size("small", 64);
    let large = flags.size("large", 256 * 1024);
    let pairs = flags.num("pairs", 4);
    let iters = flags.num("iters", 3);
    let dtype = Datatype::alternating(small, large, pairs);
    let kind = match flags.get("impl") {
        None => EngineKind::MadMpi(StrategyKind::Reorder),
        _ => flags.kind(),
    };
    let sample = pingpong_typed(kind, flags.nic(), &dtype, iters);
    println!(
        "transfer time   : {:.0} us ({} blocks, {} payload bytes)",
        sample.one_way_us,
        dtype.block_count(),
        dtype.total_bytes()
    );
    println!("frames per ping : {:.1}", sample.frames_per_ping);
}

fn cmd_trace(flags: &Flags) {
    let size = flags.size("size", 1024);
    let strategy = flags.strategy();
    let world = shared_world(SimConfig::two_nodes(flags.nic()));
    world.lock().enable_trace();
    let mk = |node: u32| {
        let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
        let meter = Box::new(driver.meter());
        NmadEngine::new(
            vec![Box::new(driver)],
            meter,
            strategy.build(),
            EngineCosts::zero(),
        )
    };
    let mut a = mk(0);
    let mut b = mk(1);
    let s = a.isend(NodeId(1), Tag(0), vec![0x42u8; size]);
    let r = b.post_recv(NodeId(0), Tag(0), size);
    if let Err(e) = run_pair(&world, &mut a, &mut b, s, r) {
        eprintln!("{e}");
        return;
    }
    let trace = world.lock().take_trace();
    println!("--- events ---");
    print!("{}", timeline::render_events(&trace));
    println!("--- per-node summary ---");
    print!("{}", timeline::render_summary(&trace));
    if let Some((first, last)) = timeline::makespan(&trace) {
        println!("--- makespan: {first} .. {last} ---");
    }
}

/// Retransmission timeout of both reliability protocols, as in
/// `bench --bin lossy`: about twice the GigE model's round trip for a
/// 64,000 B frame.
const LOSSY_RTO_NS: u64 = 1_500_000;

fn cmd_lossy(flags: &Flags) {
    use newmadeleine::net::{Driver, LossyDriver, ReliableDriver, SelectiveDriver, SimCpuMeter};
    let size = flags.size("size", 4096);
    let seed = flags.num("seed", 7) as u64;
    let loss = flags.num("loss", 10) as f64 / 100.0;
    let proto = flags.get("proto").unwrap_or("gbn");
    let world = shared_world(SimConfig::two_nodes(nic::tcp_gige()));
    let mk = |node: u32, seed: u64| -> NmadEngine {
        let raw = SimDriver::new(world.clone(), NodeId(node), RailId(0));
        let lossy = LossyDriver::new(raw, loss, seed);
        let cw = world.clone();
        let ww = world.clone();
        let now: Box<dyn Fn() -> u64 + Send> = Box::new(move || cw.lock().now().as_ns());
        let wake: Box<dyn Fn(u64) + Send> =
            Box::new(move |t| ww.lock().schedule_wakeup(SimTime::from_ns(t)));
        let driver: Box<dyn Driver> = match proto {
            "sr" => Box::new(SelectiveDriver::new(lossy, now, Some(wake), LOSSY_RTO_NS)),
            "gbn" => Box::new(ReliableDriver::new(lossy, now, Some(wake), LOSSY_RTO_NS)),
            _ => usage(),
        };
        let meter = Box::new(SimCpuMeter::new(world.clone(), NodeId(node)));
        NmadEngine::new(
            vec![driver],
            meter,
            Box::new(StratAggreg),
            EngineCosts::zero(),
        )
    };
    let mut a = mk(0, seed);
    let mut b = mk(1, seed ^ 0xABCD);
    let s = a.isend(NodeId(1), Tag(0), vec![0x77u8; size]);
    let r = b.post_recv(NodeId(0), Tag(0), size);
    if let Err(e) = run_pair(&world, &mut a, &mut b, s, r) {
        eprintln!("{e}");
        return;
    }
    let done = b.try_take_recv(r).expect("completed");
    assert_eq!(done.data.len(), size);
    let w = world.lock();
    println!(
        "{size} B delivered across {:.0}% loss via {} in {}",
        loss * 100.0,
        if proto == "sr" {
            "selective repeat"
        } else {
            "go-back-N"
        },
        w.now()
    );
    println!(
        "wire: {} frames, {} bytes (incl. retransmits + acks)",
        w.stats().packets_sent,
        w.stats().bytes_sent
    );
}

/// Co-simulates `a` and `b` until `a`'s send `s` and `b`'s receive `r`
/// complete.
fn run_pair(
    world: &SharedWorld,
    a: &mut NmadEngine,
    b: &mut NmadEngine,
    s: SendReqId,
    r: RecvReqId,
) -> Result<SimTime, Deadlock> {
    run_until(world, || {
        let moved = a.progress() | b.progress();
        if a.is_send_done(s) && b.is_recv_done(r) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let Some(flags) = Flags::parse(rest) else {
        usage();
    };
    match cmd.as_str() {
        "caps" => cmd_caps(),
        "pingpong" => cmd_pingpong(&flags),
        "burst" => cmd_burst(&flags),
        "datatype" => cmd_datatype(&flags),
        "trace" => cmd_trace(&flags),
        "lossy" => cmd_lossy(&flags),
        _ => usage(),
    }
    ExitCode::SUCCESS
}
