//! # `netsim` — deterministic packet-level data-centre network simulator
//!
//! The substrate under the Polyraptor reproduction: an event-driven
//! (smoltcp-style explicit, no async runtime — simulation is pure
//! computation) discrete-event simulator with:
//!
//! * integer-nanosecond clock (1 Gbps ⇒ 1 bit/ns, all delays exact);
//! * store-and-forward links with per-link rate and propagation delay;
//! * drop-tail **and** NDP trimming/dual-priority switch queues;
//! * fat-tree, leaf–spine, and Jellyfish (random regular graph)
//!   topology builders with FatPaths-style path-diversity layers
//!   ([`topology::RoutingPolicy`]: layer 0 = shortest-path ECMP, extra
//!   layers = seeded near-disjoint link subsets with 2× bounded
//!   stretch), per-flow or per-packet layer assignment with
//!   re-assignment away from dead layers, and per-flow ECMP or
//!   per-packet spraying forwarding within a layer;
//! * scripted mid-run fault injection ([`fault::FaultPlan`]): link,
//!   switch, and host failures with incremental route repair (including
//!   restore repair and flap coalescing), multicast-tree repair, and
//!   fault-aware loss accounting — plus a seeded Poisson fault
//!   generator ([`fault::FaultProcess`]) for sustained churn;
//! * in-network multicast over deterministic forwarding trees;
//! * a transport-agnostic [`sim::Agent`] hook — Polyraptor and the TCP
//!   baseline plug in without `netsim` knowing either.
//!
//! Determinism is a contract: same seed ⇒ bit-identical event order and
//! results (the RNG is a local PCG32, never the `rand` crate, so results
//! survive dependency upgrades).
//!
//! ## Example: two hosts through one switch
//!
//! ```
//! use netsim::{Agent, Ctx, Dest, FlowId, Packet, SimConfig, SimPayload,
//!              SimTime, Simulator, Topology, NodeKind};
//!
//! #[derive(Debug, Clone)]
//! enum Ping { Data, Header }
//! impl SimPayload for Ping {
//!     fn is_control(&self) -> bool { matches!(self, Ping::Header) }
//!     fn trim(&self) -> Option<Self> { Some(Ping::Header) }
//! }
//!
//! struct App { got: usize }
//! impl Agent<Ping> for App {
//!     fn on_packet(&mut self, _p: Packet<Ping>, _ctx: &mut Ctx<Ping>) { self.got += 1; }
//!     fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<Ping>) {
//!         let dst = netsim::NodeId(2);
//!         ctx.send(Packet { src: ctx.node, dst: Dest::Host(dst),
//!                           flow: FlowId(1), size: 1500, payload: Ping::Data });
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeKind::Host);
//! let s = topo.add_node(NodeKind::Switch);
//! let b = topo.add_node(NodeKind::Host);
//! topo.connect(a, s, 1_000_000_000, 10_000);
//! topo.connect(b, s, 1_000_000_000, 10_000);
//! topo.compute_routes();
//!
//! let mut sim = Simulator::new(topo, SimConfig::ndp(42));
//! sim.set_agent(a, App { got: 0 });
//! sim.set_agent(b, App { got: 0 });
//! sim.schedule_timer(a, SimTime::ZERO, 0);
//! sim.run_to_completion();
//! assert_eq!(sim.agent(b).got, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod evq;
pub mod fault;
#[cfg(test)]
mod fixtures;
pub mod packet;
pub mod queue;
pub mod rng;
mod shard;
pub mod sim;
pub mod telemetry;
pub mod time;
pub mod topology;

pub use fault::{
    FaultAction, FaultEvent, FaultMask, FaultMix, FaultPlan, FaultProcess, HostFailure,
};
pub use packet::{Dest, FlowId, GroupId, Packet, SimPayload, HEADER_BYTES};
pub use queue::{Enqueued, PortQueue, QueueConfig, QueueStats};
pub use rng::Pcg32;
pub use sim::{Agent, Ctx, FabricStats, LayerAssign, RouteMode, SimConfig, Simulator};
pub use telemetry::{
    Annotation, AnomalyKind, Bucket, FabricEvent, FlowSpanEvent, NoTelemetry, PortProbe,
    PortSample, Recorder, SpanMark, TelemetryConfig, TelemetrySink, TraceBuilder,
};
pub use time::{serialization_ns, SimTime};
pub use topology::{NodeId, NodeKind, Port, RouteRepair, RoutingPolicy, Topology};
