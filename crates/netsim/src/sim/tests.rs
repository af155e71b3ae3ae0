use super::*;
use crate::evq::EventQueue;
use crate::fixtures::*;
use crate::packet::{Dest, FlowId};
use crate::telemetry::{Recorder, TelemetryConfig};

/// Queue statistics of one port.
fn queue_stats(sim: &Simulator<P, Echo>, node: NodeId, port: u16) -> QueueStats {
    sim.cell(node).queues[port as usize].stats()
}

/// `host`'s edge switch and its first uplink port.
fn uplink(t: &Topology, host: NodeId) -> (NodeId, u16) {
    let edge = t.edge_switch(host);
    let up = t
        .node_ports(edge)
        .iter()
        .position(|p| t.kind(p.peer) == NodeKind::Switch);
    (edge, up.expect("edge has uplinks") as u16)
}

// The tests are split by subject into the files below, all of them in
// this one module so each keeps its name (`sim::tests::...`). They are
// included, not declared as modules, so `cargo fmt` does not reach
// them: CI's rustfmt step checks them by name.
include!("tests/forwarding.rs");
include!("tests/faults.rs");
include!("tests/shards.rs");
