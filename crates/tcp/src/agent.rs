//! The TCP host agent: connection demux and timer management.

use std::collections::BTreeMap;

use netsim::{Agent, Ctx, NodeId, Packet};

use crate::receiver::TcpReceiver;
use crate::sender::{SenderPhase, TcpSender};
use crate::spec::{ConnRecord, ConnSpec, TcpConfig};
use crate::wire::{ConnId, TcpPayload};

const KIND_START: u64 = 1;
const KIND_RTO: u64 = 2;

/// Timer token for a connection's start — schedule at `spec.start` on
/// the **sender** host.
pub fn conn_start_token(conn: ConnId) -> u64 {
    KIND_START << 56 | u64::from(conn.0)
}

fn rto_token(conn: ConnId) -> u64 {
    KIND_RTO << 56 | u64::from(conn.0)
}

/// Per-host TCP agent carrying any number of connections.
pub struct TcpAgent {
    cfg: TcpConfig,
    node: NodeId,
    senders: BTreeMap<ConnId, TcpSender>,
    receivers: BTreeMap<ConnId, TcpReceiver>,
    /// Completed-connection records (receiver side).
    pub records: Vec<ConnRecord>,
}

impl TcpAgent {
    /// New agent for `node`.
    pub fn new(node: NodeId, cfg: TcpConfig) -> Self {
        Self {
            cfg,
            node,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    /// Install a connection this host participates in. Schedule
    /// [`conn_start_token`] at `spec.start` on the sender host.
    pub fn install(&mut self, spec: ConnSpec) {
        spec.validate();
        if spec.sender == self.node {
            self.senders.insert(spec.id, TcpSender::new(spec, self.cfg));
        } else if spec.receiver == self.node {
            self.receivers.insert(spec.id, TcpReceiver::new(spec));
        } else {
            panic!(
                "host {} is not an endpoint of conn {}",
                self.node.0, spec.id.0
            );
        }
    }

    /// Sender-side diagnostics for a connection.
    pub fn sender(&self, conn: ConnId) -> Option<&TcpSender> {
        self.senders.get(&conn)
    }

    /// Number of sender connections still moving data.
    pub fn active_sends(&self) -> usize {
        self.senders
            .values()
            .filter(|s| s.phase != SenderPhase::Done)
            .count()
    }

    /// Make sure a simulator timer will fire at or before the sender's
    /// live RTO deadline. A connection keeps one timer in flight: every
    /// ACK pushes the deadline *later*, which needs no new event — the
    /// timer in flight fires early, finds the deadline ahead of it and
    /// re-arms itself there (see `on_timer`). Only a deadline that
    /// moved *earlier* than the timer in flight (the RTO estimate
    /// shrank) gets a second, earlier timer; the later one then fires
    /// as a no-op.
    fn sync_rto_timer(sender: &mut TcpSender, conn: ConnId, ctx: &mut Ctx<TcpPayload>) {
        if let Some(deadline) = sender.rto_deadline {
            if sender.rto_timer.is_none_or(|at| deadline < at) {
                ctx.timer_at(deadline, rto_token(conn));
                sender.rto_timer = Some(deadline);
            }
        }
    }
}

impl Agent<TcpPayload> for TcpAgent {
    fn on_packet(&mut self, pkt: Packet<TcpPayload>, ctx: &mut Ctx<TcpPayload>) {
        match pkt.payload {
            TcpPayload::Syn { conn } => {
                if let Some(r) = self.receivers.get_mut(&conn) {
                    r.on_syn(ctx);
                }
            }
            TcpPayload::SynAck { conn } => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    s.on_synack(ctx);
                    Self::sync_rto_timer(s, conn, ctx);
                }
            }
            TcpPayload::Data { conn, seq, len, .. } => {
                if let Some(r) = self.receivers.get_mut(&conn) {
                    if r.on_data(seq, len, ctx) {
                        self.records.push(r.record());
                    }
                }
            }
            TcpPayload::Ack { conn, ack } => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    s.on_ack(ack, ctx);
                    Self::sync_rto_timer(s, conn, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<TcpPayload>) {
        let conn = ConnId((token & 0xFFFF_FFFF) as u32);
        match token >> 56 {
            KIND_START => {
                let s = self
                    .senders
                    .get_mut(&conn)
                    .expect("start timer on host without sender state");
                s.open(ctx);
                Self::sync_rto_timer(s, conn, ctx);
            }
            KIND_RTO => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    if s.rto_timer != Some(ctx.now) {
                        // Superseded by an earlier timer.
                        return;
                    }
                    s.rto_timer = None;
                    // A timeout only if the deadline has not moved on
                    // since this timer was armed; either way, follow
                    // the live deadline.
                    if s.rto_deadline == Some(ctx.now) {
                        s.on_rto(ctx);
                    }
                    Self::sync_rto_timer(s, conn, ctx);
                }
            }
            other => panic!("unknown TCP timer kind {other}"),
        }
    }
}

/// Convenience: install a connection at both endpoints and schedule its
/// start timer.
pub fn install_connection<S, T>(sim: &mut netsim::Simulator<TcpPayload, S, T>, spec: &ConnSpec)
where
    S: netsim::Agent<TcpPayload> + AsMut<TcpAgent>,
    T: netsim::TelemetrySink,
{
    let start = spec.start;
    let (snd, id) = (spec.sender, spec.id);
    sim.agent_mut(spec.sender).as_mut().install(spec.clone());
    sim.agent_mut(spec.receiver).as_mut().install(spec.clone());
    sim.schedule_timer(snd, start, conn_start_token(id));
}

impl AsMut<TcpAgent> for TcpAgent {
    fn as_mut(&mut self) -> &mut TcpAgent {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeKind, SimConfig, SimTime, Simulator, Topology};

    fn linear_fabric() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        (t, a, b)
    }

    fn spec(bytes: u64, a: NodeId, b: NodeId) -> ConnSpec {
        ConnSpec {
            id: ConnId(1),
            session: 0,
            bytes,
            sender: a,
            receiver: b,
            start: SimTime::ZERO,
            background: false,
        }
    }

    #[test]
    fn clean_transfer_completes() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(1_000_000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let rec = &sim.agent(b).records;
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].bytes, 1_000_000);
        // 1 MB at 1 Gbps ≥ 8 ms; with handshake + slow start, below 1 Gbps.
        let g = rec[0].goodput_gbps();
        assert!(g > 0.3 && g < 1.0, "goodput {g}");
        assert_eq!(sim.agent(a).active_sends(), 0);
    }

    #[test]
    fn short_flow_completes_quickly() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(5000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let rec = &sim.agent(b).records;
        assert_eq!(rec.len(), 1);
        // 4 segments fit in IW10: handshake RTT + one data RTT ≈ 150 µs.
        assert!(
            rec[0].finish < SimTime::from_micros(300),
            "took {}",
            rec[0].finish
        );
    }

    #[test]
    fn loss_recovered_by_fast_retransmit() {
        // Two senders share one receiver port (2:1 overload): the
        // 10-packet drop-tail queue must overflow, and both transfers
        // must still complete via dup-ACK/RTO recovery.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let c = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(c, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        let mut cfg = SimConfig::classic(1);
        cfg.switch_queue = netsim::QueueConfig::DropTail { cap_pkts: 10 };
        let mut sim = Simulator::new(t, cfg);
        for h in [a, b, c] {
            sim.set_agent(h, TcpAgent::new(h, TcpConfig::paper_default()));
        }
        let mut sp1 = spec(3_000_000, a, b);
        let mut sp2 = spec(3_000_000, c, b);
        sp1.id = ConnId(1);
        sp2.id = ConnId(2);
        install_connection(&mut sim, &sp1);
        install_connection(&mut sim, &sp2);
        sim.run_to_completion();
        let recs = &sim.agent(b).records;
        assert_eq!(recs.len(), 2, "both transfers must complete despite drops");
        assert!(sim.stats().dropped > 0, "2:1 overload must drop");
        let rec1 = sim.agent(a).sender(ConnId(1)).unwrap().fast_retransmits
            + sim.agent(a).sender(ConnId(1)).unwrap().timeouts;
        let rec2 = sim.agent(c).sender(ConnId(2)).unwrap().fast_retransmits
            + sim.agent(c).sender(ConnId(2)).unwrap().timeouts;
        assert!(rec1 + rec2 > 0, "expected loss recovery to trigger");
    }

    #[test]
    fn deep_queue_no_loss_full_throughput() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(10_000_000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let snd = sim.agent(a).sender(ConnId(1)).unwrap();
        assert_eq!(snd.timeouts, 0);
        assert_eq!(snd.fast_retransmits, 0);
        let g = sim.agent(b).records[0].goodput_gbps();
        assert!(g > 0.85, "long flow should approach line rate, got {g}");
    }

    fn at(ns: u64) -> Ctx<TcpPayload> {
        Ctx::detached(SimTime::from_nanos(ns), NodeId(0))
    }

    fn from_receiver(payload: TcpPayload) -> Packet<TcpPayload> {
        Packet {
            src: NodeId(2),
            dst: netsim::Dest::Host(NodeId(0)),
            flow: netsim::FlowId(1),
            size: netsim::HEADER_BYTES,
            payload,
        }
    }

    fn ack(bytes: u64) -> Packet<TcpPayload> {
        from_receiver(TcpPayload::Ack {
            conn: ConnId(1),
            ack: bytes,
        })
    }

    /// Fire times of the RTO timers a callback queued.
    fn rto_timers(ctx: &Ctx<TcpPayload>) -> Vec<u64> {
        ctx.queued_timers()
            .iter()
            .filter(|(_, token)| *token == rto_token(ConnId(1)))
            .map(|(at, _)| at.as_nanos())
            .collect()
    }

    const MS: u64 = 1_000_000;

    /// A sender-side agent on host 0, driven by hand on detached
    /// contexts: connection 1 (10 MB to host 2) opened at t = 0 (SYN
    /// timer at 1 s), handshake complete at 100 µs (deadline unchanged,
    /// no timer).
    fn established() -> TcpAgent {
        let mut agent = TcpAgent::new(NodeId(0), TcpConfig::paper_default());
        agent.install(spec(10_000_000, NodeId(0), NodeId(2)));
        let mut ctx = at(0);
        agent.on_timer(conn_start_token(ConnId(1)), &mut ctx);
        assert_eq!(rto_timers(&ctx), [1_000 * MS], "the SYN timeout");
        let mut ctx = at(100_000);
        agent.on_packet(
            from_receiver(TcpPayload::SynAck { conn: ConnId(1) }),
            &mut ctx,
        );
        assert_eq!(rto_timers(&ctx), [] as [u64; 0]);
        assert_eq!(ctx.queued_sends().len(), 10, "the initial window");
        agent
    }

    #[test]
    fn in_order_acks_queue_one_rto_timer_in_total() {
        let mut agent = established();
        let mut queued = Vec::new();
        for i in 1..=200u64 {
            let mut ctx = at(100_000 + i * 12_000);
            agent.on_packet(ack(i * 1440), &mut ctx);
            assert!(!ctx.queued_sends().is_empty(), "the window slides");
            queued.extend(rto_timers(&ctx));
        }
        // The first ACK pulls the deadline from the 1 s SYN timeout in
        // to RTOmin after it; the other 199 only push it later.
        assert_eq!(queued, [112_000 + 200 * MS]);
        let s = agent.sender(ConnId(1)).unwrap();
        assert_eq!(
            s.rto_deadline,
            Some(SimTime::from_nanos(100_000 + 200 * 12_000 + 200 * MS))
        );
    }

    #[test]
    fn early_fire_rearms_and_a_superseded_timer_is_ignored() {
        let mut agent = established();
        let rto = rto_token(ConnId(1));
        let timeouts = |a: &TcpAgent| a.sender(ConnId(1)).unwrap().timeouts;
        // The RTO estimate shrank from 1 s to RTOmin: the deadline
        // moves in front of the SYN timer, which needs a second timer.
        let mut ctx = at(MS);
        agent.on_packet(ack(1440), &mut ctx);
        assert_eq!(rto_timers(&ctx), [201 * MS]);
        // An ACK at 150 ms pushes the deadline to 350 ms: no event.
        let mut ctx = at(150 * MS);
        agent.on_packet(ack(2 * 1440), &mut ctx);
        assert_eq!(rto_timers(&ctx), [] as [u64; 0]);
        // The timer in flight fires early and re-arms at the deadline.
        let mut ctx = at(201 * MS);
        agent.on_timer(rto, &mut ctx);
        assert_eq!(rto_timers(&ctx), [350 * MS]);
        assert_eq!((timeouts(&agent), ctx.queued_sends().len()), (0, 0));
        // Two real timeouts, backing off 400 ms then 800 ms.
        let mut ctx = at(350 * MS);
        agent.on_timer(rto, &mut ctx);
        assert_eq!(rto_timers(&ctx), [750 * MS]);
        assert_eq!((timeouts(&agent), ctx.queued_sends().len()), (1, 1));
        let mut ctx = at(750 * MS);
        agent.on_timer(rto, &mut ctx);
        assert_eq!(rto_timers(&ctx), [1_550 * MS]);
        assert_eq!(timeouts(&agent), 2);
        // The SYN timer, superseded since the first ACK, does nothing.
        let mut ctx = at(1_000 * MS);
        agent.on_timer(rto, &mut ctx);
        assert_eq!(ctx.queued_timers().len() + ctx.queued_sends().len(), 0);
        assert_eq!(timeouts(&agent), 2);
        assert_eq!(
            agent.sender(ConnId(1)).unwrap().rto_deadline,
            Some(SimTime::from_nanos(1_550 * MS))
        );
    }

    /// [`TcpAgent`] wrapper logging the instant of every RTO firing of
    /// connection 1.
    struct Spy {
        inner: TcpAgent,
        fired: Vec<u64>,
    }

    impl Agent<TcpPayload> for Spy {
        fn on_packet(&mut self, pkt: Packet<TcpPayload>, ctx: &mut Ctx<TcpPayload>) {
            self.inner.on_packet(pkt, ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<TcpPayload>) {
            let timeouts = |a: &TcpAgent| a.sender(ConnId(1)).map_or(0, |s| s.timeouts);
            let before = timeouts(&self.inner);
            self.inner.on_timer(token, ctx);
            if timeouts(&self.inner) > before {
                self.fired.push(ctx.now.as_nanos());
            }
        }
    }

    impl AsMut<TcpAgent> for Spy {
        fn as_mut(&mut self) -> &mut TcpAgent {
            &mut self.inner
        }
    }

    /// A transfer whose last hop goes silent (rate 0) 2 ms in and comes
    /// back after the fifth timeout. The instants, the finish time and
    /// the segment count were recorded from the per-ACK-timer agent
    /// (PR 14's parent): one timer per connection must time out at the
    /// same nanoseconds with the same back-off.
    #[test]
    fn black_holed_transfer_times_out_at_the_pinned_instants() {
        let (t, a, b) = linear_fabric();
        let switch = NodeId(1);
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        for h in [a, b] {
            sim.set_agent(
                h,
                Spy {
                    inner: TcpAgent::new(h, TcpConfig::paper_default()),
                    fired: Vec::new(),
                },
            );
        }
        install_connection(&mut sim, &spec(1_000_000, a, b));
        sim.run_until(SimTime::from_millis(2));
        sim.set_link_rate(switch, 1, 0);
        let events = sim.run_until(SimTime::from_secs(7));
        assert_eq!(
            sim.agent(a).fired,
            [
                202_032_256,
                602_032_256,
                1_402_032_256,
                3_002_032_256,
                6_202_032_256
            ],
            "RTOmin after the last ACK, then doubling"
        );
        // What was in flight at 2 ms drains, then five timeouts with
        // one retransmission each and the few timers that walked the
        // deadline there — not one stale timer per ACK of the first
        // 2 ms.
        assert!(events < 60, "{events} events in the black hole");
        sim.set_link_rate(switch, 1, 1_000_000_000);
        sim.run_to_completion();
        assert_eq!(sim.agent(a).fired.len(), 5, "no timeout after the repair");
        assert_eq!(
            sim.agent(b).inner.records[0].finish.as_nanos(),
            6_208_771_744
        );
        let s = sim.agent(a).inner.sender(ConnId(1)).unwrap();
        assert_eq!((s.timeouts, s.segments_sent), (5, 719));
    }
}
