//! Integration tests for the engine-wide observability layer: the
//! aggregation ratio separates the optimizing strategies from the FIFO
//! baseline, counters stay monotone while the engine runs, and the
//! JSON report machinery holds together end to end.

use newmadeleine::core::{
    EngineCosts, MetricsRegistry, MetricsSnapshot, NmadEngine, StratAggreg, StratDefault, Strategy,
    Tag,
};
use newmadeleine::net::SimDriver;
use newmadeleine::sim::{nic, run_until, shared_world, NodeId, RailId, SharedWorld, SimConfig};
use std::ops::ControlFlow;

fn engine(world: &SharedWorld, node: u32, strategy: Box<dyn Strategy>) -> NmadEngine {
    let driver = SimDriver::new(world.clone(), NodeId(node), RailId(0));
    let meter = Box::new(driver.meter());
    NmadEngine::new(vec![Box::new(driver)], meter, strategy, EngineCosts::zero())
}

/// Runs an 8×64 B small-message burst from node 0 to node 1 and
/// returns the sender's final snapshot.
fn small_burst(mk: fn() -> Box<dyn Strategy>) -> MetricsSnapshot {
    let world = shared_world(SimConfig::two_nodes(nic::mx_myri10g()));
    let mut a = engine(&world, 0, mk());
    let mut b = engine(&world, 1, mk());
    let sends: Vec<_> = (0..8)
        .map(|t| a.isend(NodeId(1), Tag(t), vec![t as u8; 64]))
        .collect();
    let recvs: Vec<_> = (0..8).map(|t| b.post_recv(NodeId(0), Tag(t), 64)).collect();
    run_until(&world, || {
        let moved = a.progress() | b.progress();
        if sends.iter().all(|&s| a.is_send_done(s)) && recvs.iter().all(|&r| b.is_recv_done(r)) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(moved)
        }
    })
    .expect("the burst completes");
    a.metrics()
}

#[test]
fn aggreg_ratio_beats_one_while_the_baseline_stays_at_one() {
    let agg = small_burst(|| Box::new(StratAggreg));
    assert_eq!(agg.strategy, "aggreg");
    assert!(
        agg.aggregation_ratio() > 1.0,
        "aggregation must coalesce the burst: ratio {}",
        agg.aggregation_ratio()
    );
    assert_eq!(agg.engine.entries_aggregated, 8);
    assert!(agg.engine.frames_synthesized < 8);

    let def = small_burst(|| Box::new(StratDefault));
    assert_eq!(def.strategy, "default");
    assert_eq!(
        def.aggregation_ratio(),
        1.0,
        "the FIFO baseline ships one segment per frame"
    );
    assert_eq!(def.engine.frames_synthesized, 8);
}

#[test]
fn snapshot_reflects_every_layer_after_a_burst() {
    let m = small_burst(|| Box::new(StratAggreg));
    // Collect layer.
    assert_eq!(m.engine.requests_submitted, 8);
    assert_eq!(m.engine.bytes_enqueued, 8 * 64);
    assert!(m.engine.window_depth_hwm >= 1);
    // Scheduling layer.
    assert_eq!(m.engine.eager_entries, 8);
    assert_eq!(m.engine.rendezvous_entries, 0);
    // Transfer layer.
    assert_eq!(m.nics.len(), 1);
    assert_eq!(m.nics[0].name, "MX/Myri-10G");
    assert!(m.nics[0].link.busy_ns > 0);
    assert!(m.nics[0].link.idle_ns > 0);
    assert_eq!(m.nics[0].link.retransmits, 0);
    // Wire statistics agree with the scheduler's view.
    assert_eq!(m.wire.frames_sent, m.engine.frames_synthesized);
    assert_eq!(m.wire.data_entries, m.engine.eager_entries);
}

#[test]
fn registry_collects_labeled_snapshots_into_one_report() {
    let reg = MetricsRegistry::new();
    reg.record("burst/aggreg", small_burst(|| Box::new(StratAggreg)));
    reg.record("burst/default", small_burst(|| Box::new(StratDefault)));
    let json = reg.to_json();
    assert!(json.contains("\"label\":\"burst/aggreg\""));
    assert!(json.contains("\"label\":\"burst/default\""));
    assert!(json.contains("\"strategy\":\"aggreg\""));
    assert!(json.contains("\"strategy\":\"default\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
