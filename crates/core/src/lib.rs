//! # `polyraptor` — RaptorQ-coded receiver-driven data-centre transport
//!
//! Reproduction of **Polyraptor** (Alasmar, Parisis, Crowcroft —
//! SIGCOMM'18): a transport protocol for one-to-many (replication) and
//! many-to-one (multi-source fetch) transfers that combines:
//!
//! * **fountain coding** ([`rq`]): senders emit fresh encoding symbols,
//!   never retransmissions — any symbol repairs any loss;
//! * **receiver-driven flow control** (NDP-style): after one blind
//!   initial window, data moves only in response to receiver *pulls*,
//!   paced from a single queue per host so aggregate arrivals match the
//!   access link;
//! * **packet trimming**: congested switches forward headers instead of
//!   dropping, keeping the pull clock running under overload — this plus
//!   ratelessness eliminates Incast;
//! * **native multicast** for replication (one copy crosses each tree
//!   link; sender aggregates pulls from all receivers) and
//!   **coordination-free multi-source** fetch (source-range partitioning
//!   + strided repair ESIs make every replica's symbols disjoint).
//!
//! The crate plugs into [`netsim`] through [`PolyraptorAgent`] (one per
//! host). Sessions are described by [`SessionSpec`] and installed by the
//! workload layer; completed transfers surface as [`SessionRecord`]s.
//!
//! ## Example: unicast transfer over a 2-host fabric
//!
//! ```
//! use netsim::{NodeKind, SimConfig, SimTime, Simulator, Topology};
//! use polyraptor::{start_token, PolyraptorAgent, PrConfig, SessionId, SessionSpec};
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeKind::Host);
//! let s = topo.add_node(NodeKind::Switch);
//! let b = topo.add_node(NodeKind::Host);
//! topo.connect(a, s, 1_000_000_000, 10_000);
//! topo.connect(b, s, 1_000_000_000, 10_000);
//! topo.compute_routes();
//!
//! let cfg = PrConfig::paper_default();
//! let mut sim = Simulator::new(topo, SimConfig::ndp(7));
//! sim.set_agent(a, PolyraptorAgent::new(a, cfg, 1));
//! sim.set_agent(b, PolyraptorAgent::new(b, cfg, 2));
//!
//! let spec = SessionSpec::unicast(SessionId(0), 64 * 1440, a, b, SimTime::ZERO);
//! sim.agent_mut(a).install(spec.clone());
//! sim.agent_mut(b).install(spec.clone());
//! sim.schedule_timer(a, spec.start, start_token(spec.id));
//! sim.schedule_timer(b, spec.start, start_token(spec.id));
//!
//! sim.run_to_completion();
//! let rec = &sim.agent(b).records[0];
//! assert_eq!(rec.data_len, 64 * 1440);
//! assert!(rec.goodput_gbps() > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod config;
pub mod metrics;
pub mod oracle;
pub mod receiver;
pub mod sender;
pub mod session;
pub mod wire;

pub use agent::{host_fail_token, host_up_token, start_token, PolyraptorAgent};
pub use config::{MulticastPull, OracleMode, PrConfig, LINK_RATE_BPS, SYMBOL_SIZE};
pub use metrics::SessionRecord;
pub use oracle::{required_overhead, session_object, Oracle};
pub use receiver::ReceiverSession;
pub use sender::SenderSession;
pub use session::{Initiator, SessionSpec};
pub use wire::{symbol_packet_bytes, PrPayload, SessionId, CONTROL_BYTES};
