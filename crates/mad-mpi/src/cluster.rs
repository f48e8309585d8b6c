//! Cluster builders and the co-simulation pump.
//!
//! Everything a harness needs to stand up an n-rank MPI job over the
//! simulated network with any of the three implementations, or over the
//! in-process memory fabric with real threads.

use crate::backend::{DirectBackend, MpiBackend, NmadBackend};
use crate::p2p::MpiProc;
use baselines::{mpich_config, ompi_config, DirectEngine};
use nmad_core::{
    EngineCosts, NmadEngine, StratAggreg, StratDefault, StratDynamic, StratLanes, StratMultirail,
    StratReorder, Strategy,
};
use nmad_net::sim::SimDriver;
use nmad_net::Driver;
use nmad_sim::{host, run_until, shared_world, NicModel, NodeId, SharedWorld, SimConfig, SimTime};
use std::ops::ControlFlow;

/// Which scheduling strategy a MAD-MPI engine uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// FIFO without optimization.
    Default,
    /// The paper’s aggregation strategy.
    Aggreg,
    /// Aggregation with reordering: complex layouts and rendezvous mixes.
    Reorder,
    /// The paper’s multi-rails strategy.
    Multirail,
    /// Per-frame tactic selection.
    Dynamic,
    /// Priority lanes with per-tenant quanta and aging.
    Lanes,
}

impl StrategyKind {
    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Default => Box::new(StratDefault),
            StrategyKind::Aggreg => Box::new(StratAggreg),
            StrategyKind::Reorder => Box::new(StratReorder),
            StrategyKind::Multirail => Box::new(StratMultirail::default()),
            StrategyKind::Dynamic => Box::new(StratDynamic::new()),
            StrategyKind::Lanes => Box::new(StratLanes::new()),
        }
    }

    /// The kind whose [`name`](Self::name) is `name`, if any.
    pub fn parse(name: &str) -> Option<StrategyKind> {
        use StrategyKind::*;
        [Default, Aggreg, Reorder, Multirail, Dynamic, Lanes]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Default => "default",
            StrategyKind::Aggreg => "aggreg",
            StrategyKind::Reorder => "reorder",
            StrategyKind::Multirail => "multirail",
            StrategyKind::Dynamic => "dynamic",
            StrategyKind::Lanes => "lanes",
        }
    }
}

/// Which MPI implementation a rank runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// MAD-MPI over the NewMadeleine engine with the given strategy.
    MadMpi(StrategyKind),
    /// MPICH-like direct mapping.
    Mpich,
    /// OpenMPI 1.1-like direct mapping.
    Ompi,
}

impl EngineKind {
    /// Display label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::MadMpi(_) => "MadMPI",
            EngineKind::Mpich => "MPICH",
            EngineKind::Ompi => "OpenMPI",
        }
    }
}

fn build_rank(world: &SharedWorld, node: u32, size: usize, kind: EngineKind) -> MpiProc {
    let backend: Box<dyn MpiBackend> = match kind {
        EngineKind::MadMpi(strategy) => {
            let drivers: Vec<Box<dyn Driver>> = SimDriver::all_rails(world, NodeId(node))
                .into_iter()
                .map(|d| Box::new(d) as Box<dyn Driver>)
                .collect();
            let meter = Box::new(nmad_net::SimCpuMeter::new(world.clone(), NodeId(node)));
            let engine = NmadEngine::new(
                drivers,
                meter,
                strategy.build(),
                EngineCosts::from_software(&host::costs_madmpi()),
            );
            Box::new(NmadBackend::new(engine))
        }
        EngineKind::Mpich | EngineKind::Ompi => {
            let cfg = if kind == EngineKind::Mpich {
                mpich_config()
            } else {
                ompi_config()
            };
            // The baselines are single-rail libraries: they bind rail 0.
            let driver = SimDriver::new(world.clone(), NodeId(node), nmad_sim::RailId(0));
            let meter = Box::new(driver.meter());
            let engine = DirectEngine::new(Box::new(driver), meter, cfg.clone());
            Box::new(DirectBackend::new(engine, &cfg))
        }
    };
    MpiProc::new(backend, node as usize, size)
}

/// `n` ranks over one simulated rail.
pub fn sim_cluster(n: usize, nic: NicModel, kind: EngineKind) -> (SharedWorld, Vec<MpiProc>) {
    let world = shared_world(SimConfig::cluster(n, nic));
    let procs = (0..n)
        .map(|r| build_rank(&world, r as u32, n, kind))
        .collect();
    (world, procs)
}

/// `n` ranks over several (possibly heterogeneous) simulated rails.
/// Only MAD-MPI drives all rails; the baselines bind rail 0.
pub fn sim_cluster_multirail(
    n: usize,
    rails: Vec<NicModel>,
    kind: EngineKind,
) -> (SharedWorld, Vec<MpiProc>) {
    let world = shared_world(SimConfig {
        nodes: n,
        rails,
        host: host::opteron_1_8ghz(),
    });
    let procs = (0..n)
        .map(|r| build_rank(&world, r as u32, n, kind))
        .collect();
    (world, procs)
}

/// Drives every rank's progress engine until `done`, advancing virtual
/// time whenever all ranks are quiescent. Returns the completion
/// instant. Panics (with the simulator's pending-state dump) on
/// deadlock.
///
/// `done` may submit work itself (a collective's next step): after a
/// `done` that returns false, every rank is pumped once more at the
/// same instant, and the step reports whether either pass moved. A
/// submission charges CPU time but records no wakeup, so without that
/// second pass the clock could jump past the work or find nothing left
/// to wait for.
pub fn pump_cluster(
    world: &SharedWorld,
    procs: &mut [MpiProc],
    mut done: impl FnMut(&mut [MpiProc]) -> bool,
) -> SimTime {
    let pass = |procs: &mut [MpiProc]| procs.iter_mut().fold(false, |m, p| p.progress() | m);
    run_until(world, || {
        let moved = pass(procs);
        if done(procs) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(pass(procs) | moved)
        }
    })
    .unwrap_or_else(|e| panic!("MPI co-simulation: {e}"))
}

/// One rank of an MPI job over **real TCP sockets**: establishes the
/// full mesh (`addrs[rank]` must be bindable locally) and wraps it in
/// the chosen implementation. Every participating process/thread calls
/// this with the same address list; blocking `wait`/`waitall` work as
/// usual since real time passes.
pub fn tcp_rank(
    rank: usize,
    addrs: &[std::net::SocketAddr],
    kind: EngineKind,
    timeout: std::time::Duration,
) -> std::io::Result<MpiProc> {
    let driver = nmad_net::TcpDriver::full_mesh(NodeId(rank as u32), addrs, timeout)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let backend: Box<dyn MpiBackend> = match kind {
        EngineKind::MadMpi(strategy) => {
            let engine = NmadEngine::new(
                vec![Box::new(driver)],
                Box::new(nmad_net::NullMeter),
                strategy.build(),
                EngineCosts::zero(),
            );
            Box::new(NmadBackend::new(engine))
        }
        EngineKind::Mpich | EngineKind::Ompi => {
            let cfg = if kind == EngineKind::Mpich {
                mpich_config()
            } else {
                ompi_config()
            };
            let engine =
                DirectEngine::new(Box::new(driver), Box::new(nmad_net::NullMeter), cfg.clone());
            Box::new(DirectBackend::new(engine, &cfg))
        }
    };
    Ok(MpiProc::new(backend, rank, addrs.len()))
}

/// `n` ranks over the in-process memory fabric (real time, real
/// threads possible). Only MAD-MPI and the baselines' engine logic are
/// exercised; no timing model applies.
pub fn mem_cluster(n: usize, kind: EngineKind) -> Vec<MpiProc> {
    let fabric = nmad_net::mem_fabric(n);
    fabric
        .into_iter()
        .enumerate()
        .map(|(rank, driver)| {
            let backend: Box<dyn MpiBackend> = match kind {
                EngineKind::MadMpi(strategy) => {
                    let engine = NmadEngine::new(
                        vec![Box::new(driver)],
                        Box::new(nmad_net::NullMeter),
                        strategy.build(),
                        EngineCosts::zero(),
                    );
                    Box::new(NmadBackend::new(engine))
                }
                EngineKind::Mpich | EngineKind::Ompi => {
                    let cfg = if kind == EngineKind::Mpich {
                        mpich_config()
                    } else {
                        ompi_config()
                    };
                    let engine = DirectEngine::new(
                        Box::new(driver),
                        Box::new(nmad_net::NullMeter),
                        cfg.clone(),
                    );
                    Box::new(DirectBackend::new(engine, &cfg))
                }
            };
            MpiProc::new(backend, rank, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_sim::nic;

    #[test]
    fn strategy_kind_parse_inverts_name() {
        use StrategyKind::*;
        for kind in [Default, Aggreg, Reorder, Multirail, Dynamic, Lanes] {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(StrategyKind::parse("fifo"), None);
    }

    #[test]
    fn sim_cluster_builds_each_kind() {
        for kind in [
            EngineKind::MadMpi(StrategyKind::Aggreg),
            EngineKind::Mpich,
            EngineKind::Ompi,
        ] {
            let (_world, procs) = sim_cluster(2, nic::mx_myri10g(), kind);
            assert_eq!(procs.len(), 2);
            assert_eq!(procs[0].rank(), 0);
            assert_eq!(procs[1].rank(), 1);
        }
    }

    #[test]
    fn sim_ping_pong_all_backends() {
        for kind in [
            EngineKind::MadMpi(StrategyKind::Aggreg),
            EngineKind::MadMpi(StrategyKind::Default),
            EngineKind::Mpich,
            EngineKind::Ompi,
        ] {
            let (world, mut procs) = sim_cluster(2, nic::quadrics_qm500(), kind);
            let comm = procs[0].comm_world();
            let s = procs[0].isend(comm, 1, 7, &b"ping"[..]);
            let r = procs[1].irecv(comm, 0, 7, 16);
            pump_cluster(&world, &mut procs, |p| p[0].test(s) && p[1].test(r));
            assert_eq!(
                procs[1].take(r).unwrap(),
                b"ping",
                "backend {}",
                kind.label()
            );
        }
    }

    #[test]
    fn mem_cluster_roundtrip_with_wait() {
        let mut procs = mem_cluster(2, EngineKind::MadMpi(StrategyKind::Aggreg));
        let comm = procs[0].comm_world();
        let s = procs[0].isend(comm, 1, 0, &b"mem"[..]);
        let r = procs[1].irecv(comm, 0, 0, 8);
        procs[0].wait(s);
        procs[1].wait(r);
        assert_eq!(procs[1].take(r).unwrap(), b"mem");
    }
}
