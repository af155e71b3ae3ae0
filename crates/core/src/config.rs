//! Protocol configuration.

use netsim::serialization_ns;

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
    All,
    /// Pull coalescing: one emission consumes every outstanding credit,
    /// so the group is paced by the *fastest* receiver. Receivers whose
    /// access links can't keep up lose the excess to packet trimming and
    /// complete at their own pace — ratelessness makes the lost symbols
    /// free to replace. This is the only mode that reproduces Figure
    /// 1a's near-equal 1-/3-replica curves (see EXPERIMENTS.md), so it
    /// is the default.
    Any,
}

/// How a receiver decides that a session's data is recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Count distinct symbols and apply the RaptorQ failure model
    /// (succeed at `k+o` extra symbols with failure probability
    /// `10^-(2(o+1))`). This is what packet-level evaluations — including
    /// the paper's OMNeT++ model — measure; decode CPU cost is explicitly
    /// out of the paper's scope. Substitution S2 in DESIGN.md.
    Counting,
    /// Run the real `rq` decoder on actual symbol bytes. Used by tests
    /// and examples to validate the counting model end-to-end.
    Real,
}

/// Polyraptor protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrConfig {
    /// Symbol (payload) size in bytes. With a 64-byte header this should
    /// keep full symbol packets at or under the fabric MTU.
    pub symbol_size: usize,
    /// Initial window: symbols pushed blind at line rate during the
    /// first RTT before pulls take over (NDP-style).
    pub initial_window: u32,
    /// Receiver pull pacing interval in nanoseconds: one pull per
    /// full-symbol serialization time keeps aggregate arrivals at link
    /// capacity.
    pub pull_spacing_ns: u64,
    /// Oracle mode (see [`OracleMode`]).
    pub oracle: OracleMode,
    /// Re-pull a quiet session after this many nanoseconds (loss of all
    /// in-flight anchors is rare but must not wedge a session).
    pub retransmit_timeout_ns: u64,
    /// How often the keep-alive sweep runs.
    pub sweep_interval_ns: u64,
    /// Multicast straggler detection (the paper's "current work"
    /// extension): detach a receiver whose pull count lags the fastest
    /// receiver by more than this many symbols. `None` disables.
    pub straggler_lag: Option<u64>,
    /// Multicast pull-to-emission policy (see [`MulticastPull`]).
    pub multicast: MulticastPull,
    /// Cap on queued pulls per session at a receiver: beyond one
    /// window's worth, extra pulls carry no information (every pull
    /// requests "one more fresh symbol").
    pub pull_queue_cap: usize,
    /// Pacer spacing after a batched recovery re-pull leaves the host
    /// (regular pulls use [`PrConfig::pull_spacing_ns`]): each re-pull
    /// can trigger up to a window of emissions, so consecutive re-pulls
    /// — e.g. to the several replicas of a multi-source session — are
    /// spread out to keep the recovery burst access-link-shaped.
    pub repull_spacing_ns: u64,
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
    /// 10 µs delay, 250-host fat-tree):
    ///
    /// * 1440-byte symbols → 1504-byte symbol packets;
    /// * initial window of one inter-pod BDP (≈16 symbol packets);
    /// * pulls paced at one per symbol serialization time.
    pub fn paper_default() -> Self {
        let symbol_size = 1440usize;
        let rate = 1_000_000_000u64;
        let pkt = crate::wire::symbol_packet_bytes(symbol_size);
        Self {
            symbol_size,
            initial_window: 16,
            pull_spacing_ns: serialization_ns(pkt, rate),
            oracle: OracleMode::Counting,
            retransmit_timeout_ns: 2_000_000, // 2 ms
            sweep_interval_ns: 1_000_000,     // 1 ms
            straggler_lag: None,
            multicast: MulticastPull::Any,
            pull_queue_cap: 32,
            repull_spacing_ns: 4 * serialization_ns(pkt, rate),
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
        len.div_ceil(self.symbol_size)
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
        let c = PrConfig::paper_default();
        assert_eq!(c.symbol_size, 1440);
        // 1504 bytes at 1 Gbps = 12.032 µs per pull.
        assert_eq!(c.pull_spacing_ns, 12_032);
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
