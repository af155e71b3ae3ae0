//! Receiver-side session state.
//!
//! Receivers drive the transfer: every symbol arrival — full *or trimmed*
//! — earns the session one slot in the host's shared pull queue, and the
//! agent paces pulls out of that queue at the access-link rate. A lost or
//! trimmed symbol is never re-requested; the next fresh symbol replaces
//! it (rateless property), so the pull clock never stalls on loss.
//!
//! The receiver also keeps **pulled-minus-arrived loss accounting** per
//! sender: it knows how many symbols it licensed (the blind initial
//! window plus one per pull) and how many arrived. When a session goes
//! quiet past the retransmit timeout, nothing is left in flight, so the
//! difference is exactly the symbols a fault stranded — the estimate
//! that sizes the keep-alive sweep's batched recovery re-pulls (see
//! [`ReceiverSession::take_repull_batch`]).

use netsim::{NodeId, SimTime};
use rq::CodeMode;

use crate::config::{OracleMode, PrConfig, SYMBOL_SIZE};
use crate::metrics::SessionRecord;
use crate::oracle::Oracle;
use crate::session::{EsiLayout, SessionSpec, SessionState};
use crate::wire::SymbolBody;

/// Receiver-side state for one session.
pub struct ReceiverSession {
    /// Shared descriptor.
    pub spec: SessionSpec,
    oracle: Oracle,
    /// Cumulative arrivals (full + trimmed) per sender index — the
    /// counts pulls report back (read at pull transmission time).
    arrivals_from: Vec<u64>,
    /// Symbols licensed per sender: the expected blind initial window,
    /// plus one per credit pull, plus `batch + 1` per recovery re-pull
    /// (the refill and the forced nudge emission). The ledger
    /// `granted − arrivals − written_off` evaluated on a quiet session
    /// estimates symbols stranded by loss. Clamped so the estimate never
    /// goes negative when a sender over-delivers (multicast groups are
    /// paced by their fastest receiver).
    granted: Vec<u64>,
    /// Cumulative loss write-offs per sender. Folded into every reported
    /// pull count ([`ReceiverSession::report_count`]): the sender's
    /// credit clock is `max` over reported counts, so counting stranded
    /// symbols as consumed is what re-opens its window — and keeps the
    /// self-clocked pull loop running at line rate afterwards, because
    /// subsequent per-arrival counts continue from the advanced clock
    /// instead of lagging it by the never-arriving symbols.
    written_off: Vec<u64>,
    /// High-water mark of per-sender emission ordinals, inverted from
    /// observed ESIs (senders emit their source partition in order, then
    /// their strided repair sequence). A lower bound on what the sender
    /// actually emitted — it catches losses the licensing ledger cannot
    /// see, e.g. group emissions a faster co-receiver pulled that died
    /// on this receiver's tree branch.
    emitted_seen: Vec<u64>,
    /// Each sender's ESI layout (for the ESI inversion).
    layouts: Vec<EsiLayout>,
    /// Write-off symbols already requested in the current recovery round
    /// (reset each sweep) — caps a round's total at what the decode
    /// still needs.
    repull_round: u64,
    /// Senders known dead (host failure): excluded from sweeps and
    /// recovery targets; their remaining share rides on the survivors.
    /// Cleared again by [`ReceiverSession::unstrand_sender`] when the
    /// control plane reports the host revived.
    stranded: Vec<bool>,
    /// Senders stranded over this session's lifetime (metrics).
    retargets: u32,
    /// Symbols re-pulled from surviving replicas on re-target (metrics;
    /// never exceeds what the decode still needed at stranding time).
    retarget_symbols: u64,
    /// Set once the start timer fired or the first symbol arrived.
    pub started: bool,
    /// Object recovered; FINs sent.
    pub done: bool,
    /// Last time anything arrived for this session (keep-alive sweep).
    pub last_activity: SimTime,
    /// Pulls issued for this session.
    pub pulls_sent: u64,
    /// Trimmed headers seen (congestion indicator).
    pub trimmed_seen: u64,
    /// Round-robin cursor over senders for keep-alive re-pulls.
    pub rr: usize,
}

impl ReceiverSession {
    /// Build receiver state for `node`'s role in `spec`.
    pub fn new(spec: SessionSpec, node: NodeId, cfg: &PrConfig, seed: u64) -> Self {
        assert!(
            spec.receiver_index(node).is_some(),
            "node is not a receiver"
        );
        let k = cfg.k_for(spec.data_len);
        let oracle = match cfg.oracle {
            OracleMode::Counting => Oracle::counting(spec.id, k, seed),
            // Decoder storage is allocated as symbols arrive, so an
            // installed session that has not started costs a few words.
            OracleMode::Real => {
                Oracle::real(spec.id, spec.data_len, SYMBOL_SIZE, CodeMode::Systematic)
            }
        };
        let n_senders = spec.senders.len();
        let share = cfg.per_sender_window(spec.data_len, n_senders);
        Self {
            oracle,
            arrivals_from: vec![0; n_senders],
            granted: vec![share; n_senders],
            written_off: vec![0; n_senders],
            emitted_seen: vec![0; n_senders],
            layouts: (0..n_senders)
                .map(|i| EsiLayout::new(k, n_senders, i))
                .collect(),
            repull_round: 0,
            stranded: vec![false; n_senders],
            retargets: 0,
            retarget_symbols: 0,
            started: false,
            done: false,
            last_activity: spec.start,
            pulls_sent: 0,
            trimmed_seen: 0,
            rr: 0,
            spec,
        }
    }

    /// Record a full symbol from sender `sender_idx`; returns `true`
    /// when the object just became recoverable.
    pub fn on_symbol(
        &mut self,
        sender_idx: u8,
        esi: u32,
        body: Option<SymbolBody>,
        now: SimTime,
    ) -> bool {
        debug_assert!(!self.done);
        self.started = true;
        self.last_activity = now;
        self.count_arrival(sender_idx);
        self.note_esi(sender_idx, esi);
        match body {
            Some(body) => self.oracle.add_encoded(esi, body.encoder()),
            None => self.oracle.add(esi, None),
        }
    }

    /// Record a trimmed header (no coding progress, but it advances the
    /// arrival count — the sender must learn the pipe drained — and its
    /// ESI still raises the emission high-water mark).
    pub fn on_trimmed(&mut self, sender_idx: u8, esi: u32, now: SimTime) {
        self.started = true;
        self.last_activity = now;
        self.trimmed_seen += 1;
        self.count_arrival(sender_idx);
        self.note_esi(sender_idx, esi);
    }

    /// Invert an observed ESI to the sender's emission ordinal and
    /// raise that sender's high-water mark. ESIs outside the sender's
    /// sequence (corruption would be a bug, not a runtime condition)
    /// are ignored.
    fn note_esi(&mut self, sender_idx: u8, esi: u32) {
        let idx = usize::from(sender_idx);
        if let Some(ordinal) = self.layouts.get(idx).and_then(|l| l.ordinal(esi)) {
            self.emitted_seen[idx] = self.emitted_seen[idx].max(ordinal);
        }
    }

    fn count_arrival(&mut self, sender_idx: u8) {
        let idx = usize::from(sender_idx).min(self.arrivals_from.len() - 1);
        self.arrivals_from[idx] += 1;
        // Over-delivery (a multicast group paced by a faster co-receiver,
        // or a written-off symbol arriving late after all) means nothing
        // is stranded from this sender; keep the estimate non-negative.
        self.granted[idx] = self.granted[idx].max(self.report_count(idx));
    }

    /// Cumulative arrivals from the sender at `spec.senders[idx]`
    /// (diagnostics; pulls carry [`ReceiverSession::report_count`]).
    pub fn arrivals_from(&self, idx: usize) -> u64 {
        self.arrivals_from[idx]
    }

    /// The cumulative count a pull to `spec.senders[idx]` carries:
    /// arrivals plus written-off losses — both consume sender credit, so
    /// the window keeps sliding across a mass-loss event.
    pub fn report_count(&self, idx: usize) -> u64 {
        self.arrivals_from[idx] + self.written_off[idx]
    }

    /// Record that a regular (credit) pull to `spec.senders[idx]` left
    /// the host: it licenses one more emission.
    pub fn note_pull_sent(&mut self, idx: usize) {
        self.granted[idx] += 1;
    }

    /// Symbols evidently stranded from `spec.senders[idx]`: whichever is
    /// larger of the licensing ledger (pulled) and the emission
    /// high-water mark (observed ESIs), minus arrivals and previous
    /// write-offs. Meaningful on a quiet session — nothing is left in
    /// flight, so the whole difference died in the fabric.
    pub fn stranded_estimate(&self, idx: usize) -> u64 {
        self.granted[idx]
            .max(self.emitted_seen[idx])
            .saturating_sub(self.report_count(idx))
    }

    /// Upper bound on fresh symbols still needed to recover the object.
    pub fn symbols_needed(&self) -> u64 {
        self.oracle.symbols_needed()
    }

    /// Start a new recovery round (called by each keep-alive sweep that
    /// finds this session quiet): resets the per-round write-off budget.
    /// A session still quiet at the next sweep has, by the RTO argument,
    /// lost whatever the previous round requested, so the budget renews.
    pub fn begin_recovery_round(&mut self) {
        self.repull_round = 0;
    }

    /// Size the batched write-off of a recovery re-pull to
    /// `spec.senders[idx]`, read at pull transmission time: the stranded
    /// estimate, capped by `cap` and by what the decode still needs
    /// minus what this round already requested — batched recovery never
    /// asks for more symbols than the session could use. The batch is
    /// added to the sender's cumulative write-off (so the outgoing
    /// count consumes the stranded credit) and the ledger licenses the
    /// `batch`-sized refill plus the forced nudge emission.
    pub fn take_repull_batch(&mut self, idx: usize, cap: u32) -> u32 {
        let budget = self.symbols_needed().saturating_sub(self.repull_round);
        let batch = self
            .stranded_estimate(idx)
            .min(u64::from(cap))
            .min(budget)
            .min(u64::from(u32::MAX)) as u32;
        self.repull_round += u64::from(batch);
        self.written_off[idx] += u64::from(batch);
        // The sender answers with a window refill of up to `batch` plus
        // the one forced emission — all freshly licensed.
        self.granted[idx] += u64::from(batch) + 1;
        batch
    }

    /// The senders a recovery sweep should re-pull: every live sender
    /// with a positive stranded estimate (deterministic index order), or
    /// — when the estimator sees nothing stranded but the session is
    /// quiet anyway (diverged accounting, lost control packets) — the
    /// next round-robin keep-alive target alone. Senders marked dead by
    /// [`ReceiverSession::mark_sender_stranded`] are never targeted.
    pub fn recovery_targets(&mut self) -> Vec<NodeId> {
        let stranded: Vec<NodeId> = (0..self.spec.senders.len())
            .filter(|&i| !self.stranded[i] && self.stranded_estimate(i) > 0)
            .map(|i| self.spec.senders[i])
            .collect();
        if stranded.is_empty() {
            vec![self.next_sweep_target()]
        } else {
            stranded
        }
    }

    /// Distinct symbols collected.
    pub fn symbols_received(&self) -> usize {
        self.oracle.symbols_received()
    }

    /// The decode paths this session's real oracle took (all zero under
    /// the counting oracle).
    pub fn decode_stats(&self) -> rq::DecodeStats {
        self.oracle.decode_stats()
    }

    /// The next sender to target with a keep-alive pull (round-robin
    /// over the senders not known dead; plain round-robin when every
    /// sender is dead — they may yet revive, and the keep-alive must
    /// keep probing *someone* for liveness).
    pub fn next_sweep_target(&mut self) -> NodeId {
        let n = self.spec.senders.len();
        for _ in 0..n {
            let i = self.rr % n;
            self.rr += 1;
            if !self.stranded[i] {
                return self.spec.senders[i];
            }
        }
        let t = self.spec.senders[self.rr % n];
        self.rr += 1;
        t
    }

    // ---- host-failure stranding and re-target ---------------------------

    /// Where this session stands in the fault-churn lifecycle.
    pub fn state(&self) -> SessionState {
        if self.done {
            SessionState::Complete
        } else if self.stranded.iter().any(|&s| s) {
            SessionState::Stranded
        } else {
            SessionState::Active
        }
    }

    /// The control plane reports the host at `dead` failed. If it is a
    /// live sender of this session, mark it stranded: write off
    /// everything it still owed (so the loss ledger stops attributing
    /// credit to a corpse) and exclude it from sweeps and recovery
    /// rounds. Returns `true` when the sender was newly stranded — the
    /// agent then re-targets the remaining need at the survivors.
    pub fn mark_sender_stranded(&mut self, dead: NodeId) -> bool {
        let Some(idx) = self.spec.sender_index(dead) else {
            return false;
        };
        if self.stranded[idx] || self.done {
            return false;
        }
        self.stranded[idx] = true;
        self.retargets += 1;
        self.written_off[idx] += self.stranded_estimate(idx);
        true
    }

    /// The control plane reports the host at `revived` came back up. If
    /// it is a sender this session had stranded, re-admit it: clear the
    /// dead mark so sweeps and recovery rounds may target it again.
    /// Nothing else changes — the write-off minted at stranding stands
    /// and `granted` is untouched, so **no credit crosses the
    /// strand/revive boundary**: the revived sender starts from a clean
    /// ledger and earns new licenses only through the keep-alive
    /// sweep's probing re-pulls (the liveness signal). Returns `true`
    /// when the sender was actually re-admitted.
    pub fn unstrand_sender(&mut self, revived: NodeId) -> bool {
        let Some(idx) = self.spec.sender_index(revived) else {
            return false;
        };
        if !self.stranded[idx] || self.done {
            return false;
        }
        self.stranded[idx] = false;
        true
    }

    /// Whether `spec.senders[idx]` is marked dead.
    pub fn sender_stranded(&self, idx: usize) -> bool {
        self.stranded[idx]
    }

    /// Senders not known dead, in index order — the re-target candidates.
    pub fn surviving_senders(&self) -> Vec<NodeId> {
        (0..self.spec.senders.len())
            .filter(|&i| !self.stranded[i])
            .map(|i| self.spec.senders[i])
            .collect()
    }

    /// Size the batch of a re-target re-pull to `spec.senders[idx]`,
    /// read at pull transmission time: the symbols the decode still
    /// needs (already-decoded symbols are never re-fetched — the
    /// data-redundancy payoff), capped by `cap` and by what this round
    /// already requested, so a re-target round across several survivors
    /// never re-pulls more than `symbols_needed` at the moment of
    /// stranding. Accounting mirrors [`ReceiverSession::take_repull_batch`]:
    /// the write-off advances the survivor's credit clock (its window
    /// refills by `batch` fresh symbols) and the ledger licenses the
    /// refill plus the forced nudge.
    pub fn take_retarget_batch(&mut self, idx: usize, cap: u32) -> u32 {
        let budget = self.symbols_needed().saturating_sub(self.repull_round);
        let batch = budget.min(u64::from(cap)).min(u64::from(u32::MAX)) as u32;
        self.repull_round += u64::from(batch);
        self.written_off[idx] += u64::from(batch);
        self.granted[idx] += u64::from(batch) + 1;
        self.retarget_symbols += u64::from(batch);
        batch
    }

    /// Produce the completion record (call exactly once, at completion).
    pub fn record(&self, node: NodeId, finish: SimTime) -> SessionRecord {
        SessionRecord {
            session: self.spec.id,
            node,
            data_len: self.spec.data_len,
            start: self.spec.start,
            finish,
            background: self.spec.background,
            symbols: self.symbols_received(),
            trimmed_seen: self.trimmed_seen,
            pulls_sent: self.pulls_sent,
            retargets: self.retargets,
            retarget_symbols: self.retarget_symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SessionId;

    fn recv_session(k_bytes: usize) -> ReceiverSession {
        let spec = SessionSpec::unicast(SessionId(3), k_bytes, NodeId(1), NodeId(0), SimTime::ZERO);
        ReceiverSession::new(spec, NodeId(0), &PrConfig::paper_default(), 42)
    }

    #[test]
    fn completes_on_all_source_symbols() {
        let mut rs = recv_session(5 * SYMBOL_SIZE);
        let mut done = false;
        for esi in 0..5u32 {
            done = rs.on_symbol(0, esi, None, SimTime::from_nanos(esi as u64));
        }
        assert!(done, "systematic completion at k source symbols");
        assert_eq!(rs.arrivals_from(0), 5);
    }

    #[test]
    fn a_fresh_real_oracle_holds_no_symbol_storage() {
        use crate::sender::SenderSession;
        use crate::wire::PrPayload;
        use netsim::Ctx;
        let cfg = PrConfig::real_oracle();
        let spec = SessionSpec::unicast(
            SessionId(8),
            5 * SYMBOL_SIZE,
            NodeId(1),
            NodeId(0),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec.clone(), NodeId(1), &cfg);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1));
        ss.start(NodeId(1), &cfg, &mut ctx);
        let symbols: Vec<(u32, SymbolBody)> = ctx
            .queued_sends()
            .iter()
            .map(|pkt| match &pkt.payload {
                PrPayload::Symbol { esi, body, .. } => (*esi, body.clone().unwrap()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();

        // Built with the session, like the counting oracle — and until a
        // symbol arrives it is parameters only.
        let mut rs = ReceiverSession::new(spec, NodeId(0), &cfg, 1);
        let Oracle::Real {
            decoder: Some(decoder),
            ..
        } = &rs.oracle
        else {
            panic!("a fresh real oracle is decoding");
        };
        assert_eq!(decoder.storage_bytes(), 0);
        assert_eq!((rs.symbols_received(), rs.symbols_needed()), (0, 5));
        let mut done = false;
        for (esi, body) in symbols {
            done = rs.on_symbol(0, esi, Some(body), SimTime::ZERO);
        }
        assert!(done, "the blind window (k + 2 symbols) decodes");
        assert_eq!(rs.symbols_needed(), 0);
    }

    #[test]
    fn trimmed_headers_count_as_arrivals_not_progress() {
        let mut rs = recv_session(5 * SYMBOL_SIZE);
        rs.on_trimmed(0, 9, SimTime::from_micros(7));
        assert_eq!(rs.trimmed_seen, 1);
        assert_eq!(rs.symbols_received(), 0);
        assert_eq!(
            rs.arrivals_from(0),
            1,
            "trimmed headers advance the pull clock"
        );
        assert_eq!(rs.last_activity, SimTime::from_micros(7));
    }

    #[test]
    fn per_sender_arrival_accounting() {
        let spec = SessionSpec::multi_source(
            SessionId(4),
            10 * 1440,
            vec![NodeId(1), NodeId(2)],
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &PrConfig::paper_default(), 1);
        rs.on_symbol(0, 0, None, SimTime::ZERO);
        rs.on_symbol(1, 5, None, SimTime::ZERO);
        rs.on_symbol(1, 6, None, SimTime::ZERO);
        assert_eq!(rs.arrivals_from(0), 1);
        assert_eq!(rs.arrivals_from(1), 2);
    }

    #[test]
    fn sweep_targets_round_robin() {
        let spec = SessionSpec::multi_source(
            SessionId(3),
            1440,
            vec![NodeId(1), NodeId(2), NodeId(3)],
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &PrConfig::paper_default(), 1);
        let t: Vec<u32> = (0..4).map(|_| rs.next_sweep_target().0).collect();
        assert_eq!(t, vec![1, 2, 3, 1]);
    }

    #[test]
    fn estimator_zero_loss_reports_nothing_stranded() {
        let cfg = PrConfig::paper_default();
        let mut rs = recv_session(100 * SYMBOL_SIZE);
        let share = cfg.per_sender_window(100 * SYMBOL_SIZE, 1);
        assert_eq!(rs.stranded_estimate(0), share, "blind window outstanding");
        // The whole initial window arrives, plus a licensed pull cycle.
        for esi in 0..share as u32 {
            rs.on_symbol(0, esi, None, SimTime::from_nanos(u64::from(esi)));
        }
        rs.note_pull_sent(0);
        rs.on_symbol(0, share as u32, None, SimTime::ZERO);
        assert_eq!(rs.stranded_estimate(0), 0, "everything licensed arrived");
        rs.begin_recovery_round();
        assert_eq!(rs.take_repull_batch(0, 64), 0, "zero loss ⇒ pure nudge");
    }

    #[test]
    fn estimator_exact_loss_sizes_the_batch() {
        let cfg = PrConfig::paper_default();
        let mut rs = recv_session(100 * SYMBOL_SIZE);
        let share = cfg.per_sender_window(100 * SYMBOL_SIZE, 1);
        // Half the blind window arrives, the rest dies in the fabric.
        let arrived = share / 2;
        for esi in 0..arrived as u32 {
            rs.on_symbol(0, esi, None, SimTime::ZERO);
        }
        let lost = share - arrived;
        assert_eq!(rs.stranded_estimate(0), lost);
        rs.begin_recovery_round();
        assert_eq!(rs.take_repull_batch(0, 64), lost as u32, "batch = loss");
    }

    #[test]
    fn estimator_over_estimate_capped_by_cap_and_need() {
        // A 4-symbol object whose licensed count is inflated way past
        // what the decode could use.
        let mut rs = recv_session(4 * SYMBOL_SIZE);
        for _ in 0..100 {
            rs.note_pull_sent(0);
        }
        rs.on_symbol(0, 0, None, SimTime::ZERO);
        let needed = rs.symbols_needed();
        assert!(needed <= 3 + 2, "4-symbol object needs at most k+overhead");
        rs.begin_recovery_round();
        // The configured cap bounds the batch...
        assert_eq!(rs.take_repull_batch(0, 2), 2.min(needed as u32));
        // ...and the decode requirement bounds a whole round, however
        // large the stranded estimate still is.
        let rest = rs.take_repull_batch(0, 1000);
        assert!(
            u64::from(rest) <= needed.saturating_sub(2.min(needed)),
            "round total must not exceed what the decode needs"
        );
    }

    #[test]
    fn estimator_clamps_on_over_delivery() {
        // Multicast groups are paced by their fastest receiver: a slow
        // receiver can see more arrivals than it ever licensed. The
        // ledger must clamp instead of underflowing.
        let cfg = PrConfig::paper_default();
        let mut rs = recv_session(100 * SYMBOL_SIZE);
        let share = cfg.per_sender_window(100 * SYMBOL_SIZE, 1);
        for esi in 0..(share as u32 + 20) {
            rs.on_symbol(0, esi, None, SimTime::ZERO);
        }
        assert_eq!(rs.stranded_estimate(0), 0);
    }

    #[test]
    fn recovery_targets_cover_stranded_senders() {
        let spec = SessionSpec::multi_source(
            SessionId(5),
            64 * 1440,
            vec![NodeId(1), NodeId(2), NodeId(3)],
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &PrConfig::paper_default(), 1);
        // Sender 1 (index 0) delivered its share (its first partition
        // symbols, in emission order); senders 2 and 3 lost everything.
        let share = PrConfig::paper_default().per_sender_window(64 * 1440, 3);
        for esi in 0..share as u32 {
            rs.on_symbol(0, esi, None, SimTime::ZERO);
        }
        let targets: Vec<u32> = rs.recovery_targets().iter().map(|n| n.0).collect();
        assert_eq!(targets, vec![2, 3], "re-pull exactly the stranded senders");
        // The other senders' shares arrive too (each sender emits its own
        // partition in order): nothing stranded, one round-robin nudge.
        for i in 1..3usize {
            let layout = EsiLayout::new(64, 3, i);
            for n in 0..share {
                rs.on_symbol(i as u8, layout.esi(n), None, SimTime::ZERO);
            }
        }
        assert_eq!(rs.recovery_targets().len(), 1, "quiet ⇒ single nudge");
    }

    #[test]
    fn stranding_excludes_the_dead_sender_and_retarget_caps_at_need() {
        let cfg = PrConfig::paper_default();
        let spec = SessionSpec::multi_source(
            SessionId(6),
            64 * SYMBOL_SIZE,
            vec![NodeId(1), NodeId(2), NodeId(3)],
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &cfg, 1);
        assert_eq!(rs.state(), SessionState::Active);
        assert!(rs.mark_sender_stranded(NodeId(2)));
        assert!(!rs.mark_sender_stranded(NodeId(2)), "idempotent");
        assert!(!rs.mark_sender_stranded(NodeId(9)), "not a sender");
        assert_eq!(rs.state(), SessionState::Stranded);
        assert_eq!(
            rs.stranded_estimate(1),
            0,
            "the dead sender's debt is written off at stranding"
        );
        let survivors: Vec<u32> = rs.surviving_senders().iter().map(|n| n.0).collect();
        assert_eq!(survivors, vec![1, 3]);
        // Sweeps and recovery rounds never target the corpse.
        for _ in 0..6 {
            assert_ne!(rs.next_sweep_target(), NodeId(2));
        }
        assert!(!rs.recovery_targets().contains(&NodeId(2)));
        // A re-target round across the survivors is capped by what the
        // decode still needs, however many re-pulls the pacer sends.
        let needed = rs.symbols_needed();
        rs.begin_recovery_round();
        let mut total = 0u64;
        for _ in 0..4 {
            total += u64::from(rs.take_retarget_batch(0, 1_000_000));
            total += u64::from(rs.take_retarget_batch(2, 1_000_000));
        }
        assert_eq!(total, needed, "re-target re-pulls exactly the need");
    }

    #[test]
    fn all_senders_dead_falls_back_to_probing() {
        let spec = SessionSpec::multi_source(
            SessionId(7),
            1440,
            vec![NodeId(1), NodeId(2)],
            NodeId(0),
            SimTime::ZERO,
        );
        let mut rs = ReceiverSession::new(spec, NodeId(0), &PrConfig::paper_default(), 1);
        assert!(rs.mark_sender_stranded(NodeId(1)));
        assert!(rs.mark_sender_stranded(NodeId(2)));
        assert!(rs.surviving_senders().is_empty());
        // The sweep still probes someone — a revival must be noticed.
        let t = rs.next_sweep_target();
        assert!(t == NodeId(1) || t == NodeId(2));
    }

    #[test]
    fn record_captures_counters() {
        let mut rs = recv_session(2 * SYMBOL_SIZE);
        rs.on_symbol(0, 0, None, SimTime::from_micros(1));
        rs.on_trimmed(0, 1, SimTime::from_micros(2));
        rs.pulls_sent = 5;
        let rec = rs.record(NodeId(0), SimTime::from_micros(100));
        assert_eq!(rec.symbols, 1);
        assert_eq!(rec.trimmed_seen, 1);
        assert_eq!(rec.pulls_sent, 5);
        assert_eq!(rec.duration_ns(), 100_000);
    }
}
