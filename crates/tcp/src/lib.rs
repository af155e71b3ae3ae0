//! # `tcpsim` — TCP NewReno baseline transport
//!
//! The "standard unicast data transport" the paper compares Polyraptor
//! against (its OMNeT++ evaluation uses INET's TCP): slow start,
//! congestion avoidance, fast retransmit / NewReno fast recovery
//! (RFC 6582), retransmission timeout with exponential backoff and an
//! INET-default 200 ms RTO floor — the ingredient that produces the
//! classic Incast collapse of Figure 1c.
//!
//! Differences from a full TCP stack, all irrelevant to the measured
//! behaviour: no FIN teardown (the application knows the transfer
//! length), immediate ACKs (no delayed-ACK timer), unbounded receive
//! window (hosts have plentiful memory), byte-exact sequence space
//! without wraparound.
//!
//! The paper's TCP *emulations* of Polyraptor's patterns — multi-unicast
//! replication (one copy per replica through the sender's access link)
//! and partitioned fetch (each replica sends `1/S` of the object) — are
//! built on this crate by `workload`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod receiver;
pub mod sender;
pub mod spec;
pub mod wire;

pub use agent::{conn_start_token, install_connection, TcpAgent};
pub use receiver::TcpReceiver;
pub use sender::{SenderPhase, TcpSender};
pub use spec::{ConnRecord, ConnSpec, TcpConfig, MSS};
pub use wire::{ConnId, TcpPayload};
