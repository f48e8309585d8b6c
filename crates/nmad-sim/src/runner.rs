//! Co-simulation driving loop.
//!
//! Engines built on the simulator are ordinary polled state machines:
//! each exposes a `progress() -> bool` step that returns whether it made
//! any progress (posted a send, consumed a packet, completed a request).
//! [`run_until`] alternates between (a) a caller-supplied step that
//! pumps every engine once and checks the goal and (b) advancing virtual
//! time to the next event whenever a step moved nothing. This is the
//! same structure as the paper's engine, where request processing is
//! tied to NIC activity rather than the application workflow (§3.1).
//! Every co-simulation in the workspace goes through this one loop.

use std::ops::ControlFlow;
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

/// Error returned when the simulation can no longer move: the last
/// step moved nothing, its goal does not hold, and no event is pending
/// — or the steps kept reporting progress past the livelock cap
/// without reaching the goal.
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

/// Safety valve: a run whose steps report progress this many times in
/// total, counted over the whole run rather than consecutively, without
/// reaching the goal is livelocked (a bug). The cap sits far above the
/// longest run in the workspace, the full `tail` sweep.
const LIVELOCK_ROUNDS: usize = 1_000_000;

/// Runs the co-simulation on `world` until `step` reports its goal.
///
/// Each call of `step` pumps whatever the caller drives once, then
/// returns `Break(())` if its goal holds, or `Continue(moved)` with
/// whether anything made progress. A step that moved nothing is
/// followed by advancing virtual time to the next event; a step that
/// moved is retried at the same instant, since progress by one engine
/// (e.g. a delivered packet) usually enables another.
///
/// The next event is an inbox head, a transmit end or an instant
/// registered with [`SimWorld::schedule_wakeup`]; CPU charges add none.
/// A step that submits work after pumping (for instance from its goal
/// check) must pump again before it reports, or the clock moves past
/// that work.
///
/// Returns the virtual time at which the goal was observed. A
/// [`Deadlock`] carries a dump of outstanding simulator state.
pub fn run_until(
    world: &SharedWorld,
    mut step: impl FnMut() -> ControlFlow<(), bool>,
) -> Result<SimTime, Deadlock> {
    let mut moving_rounds = 0usize;
    loop {
        match step() {
            ControlFlow::Break(()) => return Ok(world.lock().now()),
            ControlFlow::Continue(true) => {
                moving_rounds += 1;
                if moving_rounds > LIVELOCK_ROUNDS {
                    return Err(Deadlock {
                        detail: format!(
                            "steps moved {LIVELOCK_ROUNDS} times without reaching the goal\n{}",
                            world.lock().pending_summary()
                        ),
                    });
                }
            }
            // Nothing moves at this instant: move the clock.
            ControlFlow::Continue(false) => {
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

        let w2 = world.clone();
        let t = run_until(&world, || match w2.lock().poll_recv(N1, R0) {
            Some(p) => {
                assert_eq!(p.payload, b"ping");
                ControlFlow::Break(())
            }
            None => ControlFlow::Continue(false),
        })
        .expect("no deadlock");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn run_until_reports_deadlock() {
        let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
        // Nothing ever sent: waiting for a receive must deadlock.
        let w2 = world.clone();
        let err = run_until(&world, || {
            ControlFlow::Continue(w2.lock().poll_recv(N1, R0).is_some())
        })
        .unwrap_err();
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn a_step_that_always_moves_ends_in_an_error() {
        let world = shared_world(SimConfig::two_nodes(nic::quadrics_qm500()));
        let mut steps = 0usize;
        let err = run_until(&world, || {
            steps += 1;
            ControlFlow::Continue(true)
        })
        .unwrap_err();
        assert!(err.to_string().contains("without reaching the goal"));
        // The cap counts moving steps over the whole run, and a moving
        // step never advances the clock.
        assert_eq!(steps, LIVELOCK_ROUNDS + 1);
        assert_eq!(world.lock().now(), SimTime::ZERO);
    }

    #[test]
    fn engines_interleave_request_response() {
        // Node 1 echoes whatever it receives; node 0 waits for the echo.
        let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
        world.lock().post_send(N0, R0, N1, vec![9u8; 64]);

        let w = world.clone();
        let t = run_until(&world, || {
            // NB: bind the poll result before re-locking — an `if let`
            // scrutinee would hold the guard across the second lock
            // (edition-2021 temporary scope) and self-deadlock.
            let delivered = w.lock().poll_recv(N1, R0);
            let echoed = delivered.is_some();
            if let Some(p) = delivered {
                w.lock().post_send(N1, R0, N0, p.payload);
            }
            let reply = w.lock().poll_recv(N0, R0);
            match reply {
                Some(p) => {
                    assert_eq!(p.payload.len(), 64);
                    ControlFlow::Break(())
                }
                None => ControlFlow::Continue(echoed),
            }
        })
        .unwrap();
        // Round trip ≥ 2 one-way times.
        let one_way = nic::mx_myri10g().one_way_time(64);
        assert!(t.saturating_since(SimTime::ZERO) >= one_way + one_way);
    }
}
