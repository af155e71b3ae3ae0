//! Protocol configuration.

use netsim::serialization_ns;

use crate::wire::symbol_packet_bytes;

/// How a multicast sender converts receiver pulls into group emissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastPull {
    /// Strict aggregation per the paper's §2 text: "multicasts a new
    /// symbol only after **all** receivers have sent one \[pull\]". The
    /// group advances at the instantaneously slowest receiver's pull
    /// rate. Under cross-traffic this couples every receiver to every
    /// other receiver's congestion (measured by the `ablations` binary);
    /// the paper's own straggler-detachment "current work" exists to
    /// mitigate exactly this.
    All {
        /// Straggler detection (the paper's "current work" extension):
        /// detach a receiver once it has blocked the group in more than
        /// this many pump rounds while another receiver had room, and
        /// serve it unicast at its own pace. `None` never detaches.
        detach_after: Option<u64>,
    },
    /// Pull coalescing: one emission consumes every outstanding credit,
    /// so the group is paced by the *fastest* receiver. Receivers whose
    /// access links can't keep up lose the excess to packet trimming and
    /// complete at their own pace — ratelessness makes the lost symbols
    /// free to replace. It is the default. The `ablations` binary runs
    /// it against [`MulticastPull::All`] on 3-replica writes over the
    /// 16-host fat-tree: median goodput 0.539 vs 0.526 Gbps, and 0.648
    /// for `All` with straggler detach (`detach_after: Some(64)`).
    Any,
}

/// How a receiver decides that a session's data is recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Count distinct symbols and apply the RaptorQ failure model
    /// (succeed at `k+o` extra symbols with failure probability
    /// `10^-(2(o+1))`). This is what packet-level evaluations — including
    /// the paper's OMNeT++ model — measure; decode CPU cost is explicitly
    /// out of the paper's scope.
    Counting,
    /// Run the real `rq` decoder on actual symbol bytes. Used by tests
    /// and examples to validate the counting model end-to-end.
    Real,
}

/// Symbol (payload) size in bytes: with the 64-byte header a full
/// symbol packet is 1504 bytes, the fabric MTU, the same as a full TCP
/// segment.
pub const SYMBOL_SIZE: usize = 1440;

/// The access-link rate the receiver's pacing assumes: the paper's
/// 1 Gbps. Runs check that every host's link runs at it.
pub const LINK_RATE_BPS: u64 = 1_000_000_000;

/// Receiver pull pacing: one pull per full symbol packet's serialization
/// time at [`LINK_RATE_BPS`] keeps aggregate arrivals at link capacity.
pub const PULL_SPACING_NS: u64 = serialization_ns(symbol_packet_bytes(SYMBOL_SIZE), LINK_RATE_BPS);

/// Pacer spacing after a batched recovery re-pull leaves the host:
/// each re-pull can trigger up to a window of emissions, so consecutive
/// re-pulls — e.g. to the several replicas of a multi-source session —
/// are spread out to keep the recovery burst access-link-shaped.
pub const REPULL_SPACING_NS: u64 = 4 * PULL_SPACING_NS;

/// Re-pull a quiet session after this long (loss of all in-flight
/// anchors is rare but must not wedge a session): 2 ms.
pub const RETRANSMIT_TIMEOUT_NS: u64 = 2_000_000;

/// How often the keep-alive sweep runs: 1 ms.
pub const SWEEP_INTERVAL_NS: u64 = 1_000_000;

/// Cap on queued pulls per session at a receiver: beyond one window's
/// worth, extra pulls carry no information (every pull requests "one
/// more fresh symbol").
pub const PULL_QUEUE_CAP: usize = 32;

/// Polyraptor protocol parameters: the ones the ablations and the
/// runners vary. The rest of the protocol's numbers are the constants
/// above.
#[derive(Debug, Clone, Copy)]
pub struct PrConfig {
    /// Initial window: symbols pushed blind at line rate during the
    /// first RTT before pulls take over (NDP-style).
    pub initial_window: u32,
    /// Oracle mode (see [`OracleMode`]).
    pub oracle: OracleMode,
    /// Multicast pull-to-emission policy (see [`MulticastPull`]).
    pub multicast: MulticastPull,
    /// Record per-session flow spans (open/close plus pull-round,
    /// re-pull, re-target, and stranding marks) into
    /// [`crate::agent::PolyraptorAgent::spans`] for telemetry export.
    /// Off by default: spans are plain appends on session-rare paths —
    /// never the per-symbol path — and consume no randomness, so
    /// enabling them cannot perturb a run, only remember it.
    pub record_spans: bool,
}

impl PrConfig {
    /// Defaults matching the paper's evaluation fabric (1 Gbps links,
    /// 10 µs delay, 250-host fat-tree): an initial window of one
    /// inter-pod BDP (≈16 symbol packets), the counting oracle, and
    /// pull coalescing for multicast.
    pub fn paper_default() -> Self {
        Self {
            initial_window: 16,
            oracle: OracleMode::Counting,
            multicast: MulticastPull::Any,
            record_spans: false,
        }
    }

    /// Same as [`PrConfig::paper_default`] but with the real decoder —
    /// for tests and examples on small objects.
    pub fn real_oracle() -> Self {
        Self {
            oracle: OracleMode::Real,
            ..Self::paper_default()
        }
    }

    /// Number of source symbols for an object of `len` bytes.
    pub fn k_for(&self, len: usize) -> usize {
        assert!(len > 0, "empty objects cannot be transferred");
        len.div_ceil(SYMBOL_SIZE)
    }

    /// The per-sender in-flight window of a session: each of `n_senders`
    /// replicas keeps its share of [`PrConfig::initial_window`], so the
    /// receiver's aggregate in-flight is one window; short objects cap
    /// at `k + 2` (enough to finish in one RTT). Senders size their
    /// emission window with this, and receivers use the same number to
    /// seed their pulled-minus-arrived loss accounting.
    pub fn per_sender_window(&self, data_len: usize, n_senders: usize) -> u64 {
        let k = self.k_for(data_len) as u32;
        let per_sender = u32::max(1, self.initial_window.div_ceil(n_senders as u32));
        u64::from(per_sender.min(k + 2))
    }
}

impl Default for PrConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        assert_eq!(SYMBOL_SIZE, 1440);
        // 1504 bytes at 1 Gbps = 12.032 µs per pull.
        assert_eq!(PULL_SPACING_NS, 12_032);
        assert_eq!(REPULL_SPACING_NS, 48_128);
    }

    #[test]
    fn k_for_rounds_up() {
        let c = PrConfig::paper_default();
        assert_eq!(c.k_for(1), 1);
        assert_eq!(c.k_for(1440), 1);
        assert_eq!(c.k_for(1441), 2);
        assert_eq!(c.k_for(4 << 20), 2913); // the paper's 4 MB blocks
    }

    #[test]
    #[should_panic(expected = "empty objects")]
    fn k_for_zero_panics() {
        PrConfig::paper_default().k_for(0);
    }
}
