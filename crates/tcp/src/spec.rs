//! Connection descriptors, configuration, and completion records.

use netsim::{NodeId, SimTime};

use crate::wire::ConnId;

/// Configuration of the TCP model.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment (payload) size in bytes. 1440 keeps full segments
    /// at 1504 wire bytes — identical wire efficiency to Polyraptor's
    /// symbol packets, so goodput comparisons are apples-to-apples.
    pub mss: u64,
    /// Initial congestion window in segments (IW10, RFC 6928).
    pub init_cwnd_segs: u64,
    /// Minimum retransmission timeout. The INET/Linux default of 200 ms
    /// is orders of magnitude above data-centre RTTs — the root cause of
    /// Incast collapse in Figure 1c.
    pub rto_min_ns: u64,
    /// Initial RTO before any RTT sample (SYN timeout).
    pub rto_init_ns: u64,
    /// RTO exponential-backoff cap.
    pub rto_max_ns: u64,
    /// Receiver advertised window in segments. INET's default is 14
    /// segments — it bounds in-flight data regardless of cwnd, which is
    /// what keeps the paper's long TCP flows from slow-start-overshooting
    /// shallow switch buffers.
    pub recv_window_segs: u64,
}

impl TcpConfig {
    /// The baseline the paper compares against ("standard unicast data
    /// transport" via INET defaults).
    pub fn paper_default() -> Self {
        Self {
            mss: 1440,
            init_cwnd_segs: 10,
            rto_min_ns: 200_000_000,    // 200 ms
            rto_init_ns: 1_000_000_000, // 1 s
            rto_max_ns: 60_000_000_000, // 60 s
            recv_window_segs: 14,       // INET advertisedWindow default
        }
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One TCP connection to be simulated (installed at both endpoints).
#[derive(Debug, Clone)]
pub struct ConnSpec {
    /// Unique connection id.
    pub id: ConnId,
    /// Grouping tag: emulated Polyraptor sessions (multi-unicast
    /// replication, partitioned fetch) aggregate all connections sharing
    /// a tag into one logical transfer.
    pub session: u32,
    /// Stream length in bytes.
    pub bytes: u64,
    /// Sending host.
    pub sender: NodeId,
    /// Receiving host.
    pub receiver: NodeId,
    /// When the sender opens the connection.
    pub start: SimTime,
    /// Excluded from headline metrics if set.
    pub background: bool,
}

impl ConnSpec {
    /// The flow id this connection's data-path packets carry — the key
    /// the fabric's per-flow ECMP hashes on. Exposed so experiment code
    /// can predict where the fabric pins the connection (e.g. to aim a
    /// fault at a switch the baseline traffic actually crosses).
    pub fn data_flow(&self) -> netsim::FlowId {
        netsim::FlowId(u64::from(self.id.0) << 16 | 0x7C9)
    }

    /// Validate structural invariants.
    pub fn validate(&self) {
        assert!(self.bytes > 0, "empty TCP transfer");
        assert_ne!(
            self.sender, self.receiver,
            "loopback connections not modelled"
        );
    }
}

/// Receiver-side completion record for one connection.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// The connection.
    pub conn: ConnId,
    /// Grouping tag (see [`ConnSpec::session`]).
    pub session: u32,
    /// Bytes transferred.
    pub bytes: u64,
    /// Connection start (spec time, includes handshake).
    pub start: SimTime,
    /// All bytes received.
    pub finish: SimTime,
    /// Background flag.
    pub background: bool,
}

impl ConnRecord {
    /// Goodput in Gbit/s over the connection's lifetime.
    pub fn goodput_gbps(&self) -> f64 {
        let ns = self.finish - self.start;
        assert!(ns > 0, "zero-duration connection");
        (self.bytes as f64 * 8.0) / ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_wire_parity_with_polyraptor() {
        let c = TcpConfig::paper_default();
        assert_eq!(c.mss as u32 + netsim::HEADER_BYTES, 1504);
    }

    #[test]
    #[should_panic(expected = "empty TCP transfer")]
    fn empty_transfer_rejected() {
        ConnSpec {
            id: ConnId(1),
            session: 0,
            bytes: 0,
            sender: NodeId(0),
            receiver: NodeId(1),
            start: SimTime::ZERO,
            background: false,
        }
        .validate();
    }

    #[test]
    fn record_goodput() {
        let r = ConnRecord {
            conn: ConnId(1),
            session: 0,
            bytes: 1_000_000,
            start: SimTime::ZERO,
            finish: SimTime::from_millis(8),
            background: false,
        };
        assert!((r.goodput_gbps() - 1.0).abs() < 1e-9);
    }
}
