//! Co-simulation driving loop.
//!
//! Engines built on the simulator are ordinary polled state machines:
//! each exposes a `progress() -> bool` step that returns whether it made
//! any progress (posted a send, consumed a packet, completed a request).
//! The runner alternates between (a) pumping every engine until all are
//! quiescent and (b) advancing virtual time to the next event. This is
//! the same structure as the paper's engine, where request processing is
//! tied to NIC activity rather than the application workflow (§3.1).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::SimTime;
use crate::topo::SimConfig;
use crate::world::SimWorld;

/// A `SimWorld` shared between the engines of every node in one
/// process. The simulation itself is single-threaded; the mutex exists
/// so drivers can hold cheap cloneable handles. Idle polls do not take
/// it: drivers answer them from the world's lock-free
/// [`Readiness`](crate::world::Readiness) mirror and lock only to pop a
/// due packet, consume a finished send or post.
pub type SharedWorld = Arc<Mutex<SimWorld>>;

/// Builds a shared world from a configuration.
pub fn shared_world(config: SimConfig) -> SharedWorld {
    Arc::new(Mutex::new(SimWorld::new(config)))
}

/// Error returned when the simulation can no longer move: every engine
/// is quiescent, the goal predicate is false, and no event is pending.
#[derive(Debug)]
pub struct Deadlock {
    /// Human-readable description of the stuck state.
    pub detail: String,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation deadlock: {}", self.detail)
    }
}

impl std::error::Error for Deadlock {}

/// Safety valve: an engine claiming progress this many consecutive
/// rounds without the goal being reached is livelocked (a bug).
const LIVELOCK_ROUNDS: usize = 1_000_000;

/// Runs `engines` against `world` until `done` returns true.
///
/// Returns the virtual time at which the goal was observed. A
/// [`Deadlock`] carries a dump of outstanding simulator state.
pub fn run_until(
    world: &SharedWorld,
    engines: &mut [&mut dyn FnMut() -> bool],
    mut done: impl FnMut() -> bool,
) -> Result<SimTime, Deadlock> {
    let mut rounds = 0usize;
    loop {
        // Pump all engines to quiescence at the current instant.
        loop {
            let mut any = false;
            for engine in engines.iter_mut() {
                // Every engine runs every round: progress by one engine
                // (e.g. a delivered packet) usually enables another.
                any |= engine();
            }
            if done() {
                return Ok(world.lock().now());
            }
            if !any {
                break;
            }
            rounds += 1;
            if rounds > LIVELOCK_ROUNDS {
                return Err(Deadlock {
                    detail: format!(
                        "engines spun {LIVELOCK_ROUNDS} rounds without reaching the goal\n{}",
                        world.lock().pending_summary()
                    ),
                });
            }
        }
        // Everyone is stuck at this instant: move the clock.
        let advanced = world.lock().advance();
        if advanced.is_none() {
            return Err(Deadlock {
                detail: format!(
                    "no pending events and goal not reached\n{}",
                    world.lock().pending_summary()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic;
    use crate::topo::{NodeId, RailId};

    const R0: RailId = RailId(0);
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn run_until_drives_a_ping_across() {
        let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
        world.lock().post_send(N0, R0, N1, b"ping".to_vec());

        let got = std::cell::Cell::new(false);
        let w2 = world.clone();
        let mut rx = || {
            if got.get() {
                return false;
            }
            if let Some(p) = w2.lock().poll_recv(N1, R0) {
                assert_eq!(p.payload, b"ping");
                got.set(true);
                true
            } else {
                false
            }
        };
        let t = run_until(&world, &mut [&mut rx], || got.get()).expect("no deadlock");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn run_until_reports_deadlock() {
        let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
        // Nothing ever sent: waiting for a receive must deadlock.
        let w2 = world.clone();
        let mut rx = || w2.lock().poll_recv(N1, R0).is_some();
        let err = run_until(&world, &mut [&mut rx], || false).unwrap_err();
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn engines_interleave_request_response() {
        // Node 1 echoes whatever it receives; node 0 waits for the echo.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        world.lock().post_send(N0, R0, N1, vec![9u8; 64]);

        let done = std::cell::Cell::new(false);
        let we = world.clone();
        let mut echo = || {
            // NB: bind the poll result before re-locking — an `if let`
            // scrutinee would hold the guard across the second lock
            // (edition-2021 temporary scope) and self-deadlock.
            let delivered = we.lock().poll_recv(N1, R0);
            if let Some(p) = delivered {
                we.lock().post_send(N1, R0, N0, p.payload);
                true
            } else {
                false
            }
        };
        let wr = world.clone();
        let mut reply = || {
            if let Some(p) = wr.lock().poll_recv(N0, R0) {
                assert_eq!(p.payload.len(), 64);
                done.set(true);
                true
            } else {
                false
            }
        };
        let t = run_until(&world, &mut [&mut echo, &mut reply], || done.get()).unwrap();
        // Round trip ≥ 2 one-way times.
        let one_way = nic::mx_myri10g().one_way_time(64);
        assert!(t.saturating_since(SimTime::ZERO) >= one_way + one_way);
    }
}
