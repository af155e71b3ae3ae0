//! Fixtures the simulator's unit tests share: one payload type, the
//! test agents, and the small fabrics they run on.

use std::thread::ThreadId;

use crate::fault::FaultPlan;
use crate::packet::{Dest, FlowId, Packet, SimPayload};
use crate::sim::{Agent, Ctx, SimConfig, Simulator};
use crate::telemetry::{NoTelemetry, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, RoutingPolicy, Topology};

/// Data trims to its header; headers and pulls are control.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum P {
    Data(u32),
    Hdr(u32),
    Pull,
}

impl SimPayload for P {
    fn is_control(&self) -> bool {
        !matches!(self, P::Data(_))
    }
    fn trim(&self) -> Option<Self> {
        match self {
            P::Data(i) => Some(P::Hdr(*i)),
            other => Some(other.clone()),
        }
    }
}

/// Test agent: records receptions; sends a preloaded batch on a timer.
#[derive(Default)]
pub(crate) struct Echo {
    pub(crate) to_send: Vec<Packet<P>>,
    pub(crate) received: Vec<(SimTime, P)>,
}

impl Agent<P> for Echo {
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<P>) {
        self.received.push((ctx.now, pkt.payload));
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<P>) {
        for pkt in self.to_send.drain(..) {
            ctx.send(pkt);
        }
    }
}

pub(crate) fn data_pkt(src: NodeId, dst: NodeId, i: u32) -> Packet<P> {
    Packet {
        src,
        dst: Dest::Host(dst),
        flow: FlowId(7),
        size: 1500,
        payload: P::Data(i),
    }
}

/// Preload `n` data packets at `src` for `dst` and send them at t = 0.
pub(crate) fn burst<T: TelemetrySink>(
    sim: &mut Simulator<P, Echo, T>,
    src: NodeId,
    dst: NodeId,
    n: u32,
) {
    for i in 0..n {
        sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
    }
    sim.schedule_timer(src, SimTime::ZERO, 0);
}

/// A simulator over `t` with an [`Echo`] on every host.
pub(crate) fn echo_sim<T: TelemetrySink>(
    t: Topology,
    config: SimConfig,
    telemetry: T,
) -> Simulator<P, Echo, T> {
    let hosts = t.hosts().to_vec();
    let mut sim = Simulator::with_telemetry(t, config, telemetry);
    for h in hosts {
        sim.set_agent(h, Echo::default());
    }
    sim
}

/// host A — switch — host B, 1 Gbps and 10 µs per link.
pub(crate) fn two_host_sim(config: SimConfig) -> (Simulator<P, Echo>, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host);
    let s = t.add_node(NodeKind::Switch);
    let b = t.add_node(NodeKind::Host);
    t.connect(a, s, 1_000_000_000, 10_000);
    t.connect(b, s, 1_000_000_000, 10_000);
    t.compute_routes();
    (echo_sim(t, config, NoTelemetry), a, b)
}

/// Two senders, one receiver: the switch's receiver port is a 2:1
/// bottleneck, so simultaneous bursts congest it.
pub(crate) fn incast_sim(config: SimConfig) -> (Simulator<P, Echo>, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host);
    let c = t.add_node(NodeKind::Host);
    let s = t.add_node(NodeKind::Switch);
    let b = t.add_node(NodeKind::Host);
    t.connect(a, s, 1_000_000_000, 10_000);
    t.connect(c, s, 1_000_000_000, 10_000);
    t.connect(b, s, 1_000_000_000, 10_000);
    t.compute_routes();
    (echo_sim(t, config, NoTelemetry), a, c, b)
}

/// The k = 4 fat-tree at 1 Gbps and 10 µs, its hosts, and one
/// aggregation switch in host 0's pod — the natural victim: spraying
/// uses both aggs, so killing one catches in-flight packets while the
/// survivor keeps every pair connected.
pub(crate) fn fat_tree() -> (Topology, Vec<NodeId>, NodeId) {
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = t.hosts().to_vec();
    let agg = t
        .node_ports(t.edge_switch(hosts[0]))
        .iter()
        .map(|p| p.peer)
        .find(|&n| t.kind(n) == NodeKind::Switch)
        .expect("edge switch has aggregation uplinks");
    (t, hosts, agg)
}

/// The fat-tree with an [`Echo`] on every host, plus the (src, dst)
/// inter-pod pair and the aggregation switch in src's pod.
pub(crate) fn fat_tree_sim<T: TelemetrySink>(
    config: SimConfig,
    telemetry: T,
) -> (Simulator<P, Echo, T>, NodeId, NodeId, NodeId) {
    let (t, hosts, agg) = fat_tree();
    (echo_sim(t, config, telemetry), hosts[0], hosts[15], agg)
}

/// The aggregation switch dies at 80 µs and is back at 500 µs.
pub(crate) fn agg_outage(agg: NodeId) -> FaultPlan {
    FaultPlan::new()
        .switch_down(SimTime::from_micros(80), agg)
        .switch_up(SimTime::from_micros(500), agg)
}

/// sender — switch — b, the switch's port 1 facing b at `b_rate`.
/// The sender's id is below the switch's or above it, so its
/// arrivals at the switch sort before or after the switch's own
/// events of the same instant.
pub(crate) fn ranked_sim(
    sender_below_switch: bool,
    b_rate: u64,
    config: SimConfig,
) -> (Simulator<P, Echo>, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let (x, s) = if sender_below_switch {
        let x = t.add_node(NodeKind::Host);
        (x, t.add_node(NodeKind::Switch))
    } else {
        let s = t.add_node(NodeKind::Switch);
        (t.add_node(NodeKind::Host), s)
    };
    let b = t.add_node(NodeKind::Host);
    t.connect(x, s, 1_000_000_000, 10_000);
    t.connect(b, s, b_rate, 10_000);
    t.compute_routes();
    (echo_sim(t, config, NoTelemetry), x, s, b)
}

/// Agent that, on timer `t`, asks for timer 0 at absolute time `t` ns.
pub(crate) struct Rearm {
    pub(crate) fired_at: Vec<SimTime>,
}

impl Agent<P> for Rearm {
    fn on_packet(&mut self, _: Packet<P>, _: &mut Ctx<P>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<P>) {
        self.fired_at.push(ctx.now);
        if token > 0 {
            ctx.timer_at(SimTime::from_nanos(token), 0);
        }
    }
}

pub(crate) fn rearm_sim() -> (Simulator<P, Rearm>, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host);
    let s = t.add_node(NodeKind::Switch);
    t.connect(a, s, 1_000_000_000, 10_000);
    t.compute_routes();
    let mut sim = Simulator::new(t, SimConfig::ndp(1));
    sim.set_agent(a, Rearm { fired_at: vec![] });
    (sim, a)
}

/// On its timer: sends a burst to `peer` (token 0) or panics (any
/// other token). Notes the thread of every callback.
pub(crate) struct Probe {
    peer: NodeId,
    pub(crate) threads: Vec<ThreadId>,
}

impl Agent<P> for Probe {
    fn on_packet(&mut self, _: Packet<P>, _: &mut Ctx<P>) {
        self.threads.push(std::thread::current().id());
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<P>) {
        assert_eq!(token, 0, "probe blew up on purpose");
        self.threads.push(std::thread::current().id());
        for _ in 0..30 {
            ctx.send(Packet {
                src: ctx.node,
                dst: Dest::Host(self.peer),
                flow: FlowId(ctx.node.0 as u64),
                size: 1500,
                payload: P::Data(0),
            });
        }
    }
}

/// The fat-tree with every host bursting to a host in another pod,
/// through [`agg_outage`] with a 50 µs convergence delay: two faults and
/// two reroutes.
pub(crate) fn probe_sim<T: TelemetrySink>(shards: usize, telemetry: T) -> Simulator<P, Probe, T> {
    let (t, hosts, agg) = fat_tree();
    let mut cfg = SimConfig::ndp(9);
    cfg.shards = shards;
    cfg.reroute_delay_ns = 50_000;
    let mut sim = Simulator::with_telemetry(t, cfg, telemetry);
    for (i, &h) in hosts.iter().enumerate() {
        sim.set_agent(
            h,
            Probe {
                peer: hosts[(i + 5) % hosts.len()],
                threads: vec![],
            },
        );
        sim.schedule_timer(h, SimTime::ZERO, 0);
    }
    sim.schedule_faults(&agg_outage(agg));
    sim
}
