//! Sender-side session state machine.
//!
//! A sender never retransmits: every emission is a *fresh* encoding
//! symbol (source symbols first — the systematic prefix — then repair
//! symbols forever). Loss recovery is therefore indistinguishable from
//! ordinary progress, which is what eliminates Incast-style retransmit
//! storms.
//!
//! Flow control is receiver-driven and **windowed**: pulls report the
//! receiver's cumulative arrival count (full or trimmed) and the sender
//! keeps at most one window of symbols outstanding per driving receiver.
//! Because the accounting is cumulative, pull loss, pull coalescing and
//! packet reordering cost nothing — the next pull carries strictly newer
//! information.
//!
//! Multi-source sessions partition the source-symbol range across the
//! `S` replicas (coordination-free: the count is known at establishment)
//! and stride the repair ESI space ([`EsiLayout`]), so the union of any
//! senders' emissions is duplicate-free — each replica's stream is
//! fully useful to the receiver.

use netsim::{Ctx, Dest, FlowId, NodeId, Packet};

use crate::config::{MulticastPull, PrConfig, SYMBOL_SIZE};
use crate::session::{EsiLayout, SessionSpec};
use crate::wire::{symbol_packet_bytes, PrPayload};

/// Sender-side state for one session.
pub struct SenderSession {
    /// The shared session descriptor.
    pub spec: SessionSpec,
    sender_idx: u8,
    /// Where this sender's emissions land in the ESI space.
    layout: EsiLayout,
    /// Group emissions so far (also: what every attached receiver has
    /// been sent).
    emitted: u64,
    /// Per-receiver cumulative arrival reports (from pulls), indexed
    /// like `spec.receivers`.
    latest: Vec<u64>,
    /// Extra unicast emissions per receiver (straggler service).
    unicast_sent: Vec<u64>,
    /// Consecutive pump rounds a receiver alone blocked strict
    /// aggregation (straggler detection under [`MulticastPull::All`]).
    blocked: Vec<u64>,
    fins: Vec<bool>,
    detached: Vec<bool>,
    started: bool,
    /// All receivers have FINed; the agent can drop this state.
    pub complete: bool,
    /// Symbols emitted; also the number of the next emission in
    /// `layout`.
    pub symbols_sent: u64,
}

impl SenderSession {
    /// Build sender state for `node`'s role in `spec`.
    pub fn new(spec: SessionSpec, node: NodeId, cfg: &PrConfig) -> Self {
        let idx = spec
            .sender_index(node)
            .expect("node is not a sender of this session");
        let n_recv = spec.receivers.len();
        Self {
            sender_idx: idx as u8,
            layout: EsiLayout::new(cfg.k_for(spec.data_len), spec.senders.len(), idx),
            emitted: 0,
            latest: vec![0; n_recv],
            unicast_sent: vec![0; n_recv],
            blocked: vec![0; n_recv],
            fins: vec![false; n_recv],
            detached: vec![false; n_recv],
            started: false,
            complete: false,
            symbols_sent: 0,
            spec,
        }
    }

    fn flow(&self) -> FlowId {
        FlowId(rq::rand::hash2(
            u64::from(self.spec.id.0),
            u64::from(self.sender_idx) << 32 | 0xF10F,
        ))
    }

    /// Emit one fresh symbol towards `dst`.
    fn emit(&mut self, dst: Dest, node: NodeId, ctx: &mut Ctx<PrPayload>) {
        let esi = self.layout.esi(self.symbols_sent);
        self.symbols_sent += 1;
        ctx.send(Packet {
            src: node,
            dst,
            flow: self.flow(),
            size: symbol_packet_bytes(SYMBOL_SIZE),
            payload: PrPayload::Symbol {
                session: self.spec.id,
                esi,
                sender_idx: self.sender_idx,
                trimmed: false,
            },
        });
    }

    /// Emit one symbol to the whole group (or the single receiver).
    fn emit_group(&mut self, node: NodeId, ctx: &mut Ctx<PrPayload>) {
        self.emitted += 1;
        let dst = self.data_dest();
        self.emit(dst, node, ctx);
    }

    /// The destination data symbols flow to: one of the session's
    /// multicast trees for replication writes (rotating per symbol — the
    /// multicast analogue of per-packet spraying), else the single
    /// receiver.
    fn data_dest(&self) -> Dest {
        if self.spec.groups.is_empty() {
            Dest::Host(self.spec.receivers[0])
        } else {
            let idx = (self.emitted as usize) % self.spec.groups.len();
            Dest::Group(self.spec.groups[idx])
        }
    }

    /// The per-receiver in-flight window. Writes push a full initial
    /// window; each of `S` read replicas keeps its share, so the
    /// receiver's aggregate in-flight is one window. Short objects cap
    /// at `k + 2` (enough to finish in one RTT).
    fn window(&self, cfg: &PrConfig) -> u64 {
        cfg.per_sender_window(self.spec.data_len, self.spec.senders.len())
    }

    /// Symbols this sender believes are on the wire towards receiver
    /// `r`: everything emitted (group + straggler unicast) minus the
    /// receiver's last cumulative arrival report.
    fn in_flight(&self, r: usize) -> u64 {
        (self.emitted + self.unicast_sent[r]).saturating_sub(self.latest[r])
    }

    /// Start the session: push the initial window at line rate. A
    /// sender-initiated session (a write) starts at its start timer, a
    /// receiver-initiated one (a read) when the receiver's `Req` arrives.
    pub fn start(&mut self, node: NodeId, cfg: &PrConfig, ctx: &mut Ctx<PrPayload>) {
        if self.started {
            return;
        }
        self.started = true;
        for _ in 0..self.window(cfg) {
            self.emit_group(node, ctx);
        }
    }

    /// A pull arrived from `from` reporting `count` cumulative arrivals.
    /// A nudge with a non-zero `batch` is a batched recovery re-pull:
    /// the receiver writes off `batch` stranded symbols, and the sender
    /// refills the reopened window in one burst.
    // The argument list mirrors the wire fields plus the agent's calling
    // context; bundling them into a struct would only rename the tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn on_pull(
        &mut self,
        from: NodeId,
        count: u64,
        nudge: bool,
        batch: u32,
        node: NodeId,
        cfg: &PrConfig,
        ctx: &mut Ctx<PrPayload>,
    ) {
        if self.complete {
            return;
        }
        // A pull also (re)starts a session whose Req/initial window was
        // lost — liveness under arbitrary control-packet loss.
        if !self.started {
            self.start(node, cfg, ctx);
            return;
        }
        let Some(r) = self.spec.receiver_index(from) else {
            return; // stray pull from a non-member; ignore
        };
        if self.fins[r] {
            return;
        }
        // Cumulative counts tolerate reordered/lost pulls. Counts fold
        // in the receiver's loss write-offs (stranded symbols consume
        // credit like arrivals, which is what keeps the window sliding
        // across a mass-loss event), so they are clamped at what was
        // actually emitted towards this receiver: an over-estimated
        // write-off cannot mint credit for symbols that never existed.
        let ceiling = self.emitted + self.unicast_sent[r];
        self.latest[r] = self.latest[r].max(count.min(ceiling));

        if nudge {
            // Force one emission so a receiver whose accounting diverged
            // (lost trimmed headers) makes progress even at batch 0; a
            // batched re-pull then refills whatever window its write-off
            // reopened, by the ordinary rule below.
            if self.detached[r] {
                self.unicast_sent[r] += 1;
                self.emit(Dest::Host(from), node, ctx);
            } else {
                self.emit_group(node, ctx);
            }
            if batch == 0 {
                return;
            }
        }

        if self.detached[r] {
            // Stragglers are served on their own window, unicast.
            let w = self.window(cfg);
            while self.in_flight(r) < w {
                self.unicast_sent[r] += 1;
                self.emit(Dest::Host(from), node, ctx);
            }
            return;
        }
        self.pump(node, cfg, ctx);
    }

    /// Emit group symbols according to the configured pull policy:
    ///
    /// * [`MulticastPull::All`] — emit while **every** attached receiver
    ///   has in-flight room (strict aggregation, the paper's §2 wording:
    ///   the group advances at the slowest receiver);
    /// * [`MulticastPull::Any`] — emit while **any** attached receiver
    ///   has room (pull coalescing: the group advances at the fastest
    ///   receiver; slower receivers shed the excess via trimming and
    ///   finish at their own pace).
    fn pump(&mut self, node: NodeId, cfg: &PrConfig, ctx: &mut Ctx<PrPayload>) {
        let w = self.window(cfg);
        loop {
            let mut any_active = false;
            let mut all_have_room = true;
            let mut any_has_room = false;
            for r in 0..self.latest.len() {
                if self.fins[r] || self.detached[r] {
                    continue;
                }
                any_active = true;
                if self.in_flight(r) < w {
                    any_has_room = true;
                } else {
                    all_have_room = false;
                }
            }
            let go = any_active
                && match cfg.multicast {
                    MulticastPull::All { .. } => all_have_room,
                    MulticastPull::Any => any_has_room,
                };
            if !go {
                // Strict aggregation: blame the blockers (straggler
                // detection, paper's "current work" extension).
                match cfg.multicast {
                    MulticastPull::All {
                        detach_after: Some(lag),
                    } if any_active => self.detect_stragglers(w, lag),
                    _ => {}
                }
                return;
            }
            self.emit_group(node, ctx);
        }
    }

    /// Under strict aggregation, count pump rounds blocked per receiver;
    /// past `threshold` the receiver is detached and served unicast at
    /// its own pace.
    fn detect_stragglers(&mut self, w: u64, threshold: u64) {
        let mut blockers = Vec::new();
        let mut any_current = false;
        for r in 0..self.latest.len() {
            if self.fins[r] || self.detached[r] {
                continue;
            }
            if self.in_flight(r) >= w {
                blockers.push(r);
            } else {
                any_current = true;
            }
        }
        // Only meaningful when someone is ready while others block.
        if !any_current {
            return;
        }
        for r in blockers {
            self.blocked[r] += 1;
            if self.blocked[r] > threshold {
                self.detached[r] = true;
            }
        }
    }

    /// A FIN arrived from `from`. Returns `true` once every receiver has
    /// FINed (session can be dropped).
    pub fn on_fin(
        &mut self,
        from: NodeId,
        node: NodeId,
        cfg: &PrConfig,
        ctx: &mut Ctx<PrPayload>,
    ) -> bool {
        if let Some(r) = self.spec.receiver_index(from) {
            self.fins[r] = true;
        }
        if self.fins.iter().all(|&f| f) {
            self.complete = true;
        } else if self.spec.receivers.len() > 1 {
            // The finished receiver no longer gates aggregation; emit any
            // now-unblocked rounds.
            self.pump(node, cfg, ctx);
        }
        self.complete
    }

    /// Diagnostic: total group emissions.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SessionId;
    use netsim::SimTime;

    fn cfg() -> PrConfig {
        PrConfig::paper_default()
    }

    fn spec_multi(s: usize) -> SessionSpec {
        SessionSpec::multi_source(
            SessionId(9),
            4 << 20,
            (1..=s as u32).map(NodeId).collect(),
            NodeId(0),
            SimTime::ZERO,
        )
    }

    #[test]
    fn partition_covers_all_sources_without_overlap() {
        let c = cfg();
        let k = c.k_for(4 << 20);
        for s in [1usize, 2, 3, 5, 7] {
            let spec = spec_multi(s);
            let mut covered = vec![false; k];
            for i in 1..=s as u32 {
                let ss = SenderSession::new(spec.clone(), NodeId(i), &c);
                let sources = (0..).map(|n| ss.layout.esi(n));
                for e in sources.take_while(|&e| (e as usize) < k) {
                    assert!(!covered[e as usize], "overlap at esi {e} (s={s})");
                    covered[e as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "gap in partition (s={s})");
        }
    }

    #[test]
    fn repair_esis_never_collide_across_senders() {
        let c = cfg();
        let spec = spec_multi(3);
        let mut seen = std::collections::HashSet::new();
        for i in 1..=3u32 {
            let ss = SenderSession::new(spec.clone(), NodeId(i), &c);
            // Each sender's 971 sources (k = 2 913), then 1 029 repairs.
            for n in 0..2_000 {
                assert!(seen.insert(ss.layout.esi(n)), "ESI collision");
            }
        }
    }

    #[test]
    fn esi_order_is_source_first() {
        let c = cfg();
        let spec =
            SessionSpec::unicast(SessionId(1), 10 * 1440, NodeId(0), NodeId(1), SimTime::ZERO);
        let ss = SenderSession::new(spec, NodeId(0), &c);
        let esis: Vec<u32> = (0..12).map(|n| ss.layout.esi(n)).collect();
        assert_eq!(&esis[..10], &(0..10).collect::<Vec<u32>>()[..]);
        assert!(esis[10] >= 10 && esis[11] > esis[10]);
    }

    #[test]
    fn window_capped_for_short_objects() {
        let c = cfg();
        let spec = SessionSpec::unicast(SessionId(1), 1440, NodeId(0), NodeId(1), SimTime::ZERO);
        let ss = SenderSession::new(spec, NodeId(0), &c);
        assert_eq!(ss.window(&c), 3); // k=1 → 1+2
    }

    #[test]
    fn window_divided_among_read_replicas() {
        let c = cfg();
        let spec = spec_multi(3);
        let ss = SenderSession::new(spec, NodeId(1), &c);
        assert_eq!(ss.window(&c), u64::from(c.initial_window.div_ceil(3)));
    }

    #[test]
    fn pull_drives_window_refill() {
        let c = cfg();
        let spec = SessionSpec::unicast(
            SessionId(1),
            100 * 1440,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec, NodeId(0), &c);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.start(NodeId(0), &c, &mut ctx);
        let w = ss.window(&c);
        assert_eq!(ctx.queued_sends().len() as u64, w);
        // Receiver reports 5 arrivals: sender tops the window back up.
        let mut ctx2 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(NodeId(1), 5, false, 0, NodeId(0), &c, &mut ctx2);
        assert_eq!(ctx2.queued_sends().len(), 5);
        // Stale (reordered) pull with an older count: no over-emission.
        let mut ctx3 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(NodeId(1), 3, false, 0, NodeId(0), &c, &mut ctx3);
        assert_eq!(ctx3.queued_sends().len(), 0);
    }

    #[test]
    fn batched_repull_refills_exactly_the_writeoff() {
        let c = cfg();
        let spec = SessionSpec::unicast(
            SessionId(1),
            100 * 1440,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec, NodeId(0), &c);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.start(NodeId(0), &c, &mut ctx);
        // Window believed full; 5 in-flight symbols died. The batched
        // re-pull reports them as consumed (count = 0 arrivals + 5
        // written off) and triggers a refill: exactly 5 fresh symbols
        // (1 forced + 4 pumped).
        let mut ctx2 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(NodeId(1), 5, true, 5, NodeId(0), &c, &mut ctx2);
        assert_eq!(ctx2.queued_sends().len(), 5);
        // The self-clock keeps running from the advanced credit clock:
        // when the refill arrives, per-arrival counts continue past the
        // write-off and slide the window 1:1 again.
        let mut ctx3 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(NodeId(1), 6, false, 0, NodeId(0), &c, &mut ctx3);
        assert_eq!(ctx3.queued_sends().len(), 1, "credit loop resumed");
    }

    #[test]
    fn batched_repull_cannot_mint_credit_beyond_emissions() {
        let c = cfg();
        let spec = SessionSpec::unicast(
            SessionId(1),
            100 * 1440,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec, NodeId(0), &c);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.start(NodeId(0), &c, &mut ctx);
        let emitted_before = ss.emitted();
        // An absurd over-estimate: the reported count clamps at
        // everything ever emitted, so the refill burst is at most one
        // window — nothing is minted.
        let mut ctx2 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(
            NodeId(1),
            1_000_000,
            true,
            1_000_000,
            NodeId(0),
            &c,
            &mut ctx2,
        );
        assert_eq!(
            ctx2.queued_sends().len() as u64,
            emitted_before,
            "refill capped at the presumed-lost window, nothing minted"
        );
    }

    #[test]
    fn nudge_forces_single_emission() {
        let c = cfg();
        let spec = SessionSpec::unicast(
            SessionId(1),
            100 * 1440,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
        );
        let mut ss = SenderSession::new(spec, NodeId(0), &c);
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.start(NodeId(0), &c, &mut ctx);
        // Window is full (no arrivals reported) but a nudge still emits.
        let mut ctx2 = Ctx::detached(SimTime::ZERO, NodeId(0));
        ss.on_pull(NodeId(1), 0, true, 0, NodeId(0), &c, &mut ctx2);
        assert_eq!(ctx2.queued_sends().len(), 1);
    }
}
