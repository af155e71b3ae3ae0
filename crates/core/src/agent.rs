//! The Polyraptor host agent: session demultiplexing, the shared pull
//! queue, pull pacing, and keep-alive sweeps with batched recovery.
//!
//! One agent runs per host and carries any number of concurrent sender-
//! and receiver-side sessions. The receiver side owns **one pull queue
//! shared by all sessions** (paper §2): every symbol or trimmed-header
//! arrival enqueues one pull, and the pacer drains the queue at one pull
//! per symbol-serialization time — so the aggregate data rate converging
//! on this host matches its access-link capacity regardless of how many
//! sessions or senders are active.
//!
//! The keep-alive sweep watches for sessions quiet past the retransmit
//! timeout. A quiet session has nothing left in flight, so its
//! pulled-minus-arrived ledger (see [`crate::receiver`]) is exactly the
//! loss a fault inflicted: the sweep re-pulls **every affected sender in
//! one batched recovery round** — each re-pull writes off the stranded
//! symbols and triggers a window-sized refill burst, so the post-fault
//! tail is not paced by the 1 ms sweep interval.

use std::collections::{BTreeMap, VecDeque};

use netsim::{Agent, Ctx, Dest, FlowId, FlowSpanEvent, NodeId, Packet, SimTime, SpanMark};

use crate::config::{
    PrConfig, PULL_QUEUE_CAP, PULL_SPACING_NS, REPULL_SPACING_NS, RETRANSMIT_TIMEOUT_NS,
    SWEEP_INTERVAL_NS,
};
use crate::metrics::SessionRecord;
use crate::receiver::ReceiverSession;
use crate::sender::SenderSession;
use crate::session::{Initiator, SessionSpec};
use crate::wire::{PrPayload, SessionId, CONTROL_BYTES};

/// Timer token kinds (high byte of the token).
const KIND_START: u64 = 1;
const KIND_PACER: u64 = 2;
const KIND_SWEEP: u64 = 3;
const KIND_HOSTFAIL: u64 = 4;
const KIND_HOSTUP: u64 = 5;

/// Token for a session's start timer — schedule this at `spec.start` on
/// **every** participating host.
pub fn start_token(session: SessionId) -> u64 {
    KIND_START << 56 | u64::from(session.0)
}

/// Token for a host-failure notification: the control plane (in these
/// experiments, the workload layer that scripted the fault) tells this
/// host that `dead` failed. The agent strands every receive session that
/// was pulling from `dead` and re-targets the remaining need at each
/// session's surviving replicas. Schedule it at the failure instant plus
/// the control-plane convergence delay — the same lag the fabric's
/// reroute pays.
pub fn host_fail_token(dead: NodeId) -> u64 {
    KIND_HOSTFAIL << 56 | u64::from(dead.0)
}

/// Token for a host-revival notification: the control plane tells this
/// host that `revived` — previously reported via [`host_fail_token`] —
/// came back up (scripted repair). The agent re-admits the revived
/// sender to every receive session that had stranded it, then relies on
/// the keep-alive sweep's probing re-pulls as the liveness signal: no
/// pull is sent here and no credit is minted across the strand/revive
/// boundary. Schedule it at the repair instant plus the control-plane
/// convergence delay, mirroring the failure notification.
pub fn host_up_token(revived: NodeId) -> u64 {
    KIND_HOSTUP << 56 | u64::from(revived.0)
}

/// The most stranded symbols one recovery re-pull may write off and
/// re-request from a sender. The refill burst a write-off triggers is
/// window-capped regardless, so the cap bounds accounting drift, not
/// burst size — it is deliberately generous.
const REPULL_BATCH_CAP: u32 = 512;

fn pacer_token() -> u64 {
    KIND_PACER << 56
}

fn sweep_token() -> u64 {
    KIND_SWEEP << 56
}

/// What a queued pull is for: ordinary credit, or a keep-alive recovery
/// re-pull (whose batched write-off is sized at transmission time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullClass {
    /// Per-arrival credit pull.
    Credit,
    /// Keep-alive sweep re-pull: nudge + batched loss write-off.
    Recover,
    /// Host-failure re-target re-pull to a surviving replica: nudge +
    /// a batch sized (at transmission time) to what the decode still
    /// needs — the dead sender's remaining share moves to the survivor.
    Retarget,
}

/// The host-wide pull scheduler: one *logical* pull queue shared by all
/// sessions (paper §2), realized as per-session FIFOs drained round-robin
/// so no session can head-of-line-block another, with a per-session cap —
/// beyond one window's worth, queued pulls carry no extra information
/// (each just asks for "one more fresh symbol").
#[derive(Default)]
struct PullScheduler {
    per_session: BTreeMap<SessionId, VecDeque<(NodeId, PullClass)>>,
    rotation: VecDeque<SessionId>,
}

impl PullScheduler {
    /// Queue a pull towards `target`; silently coalesced when the
    /// session already has a full window of pending pulls (harmless:
    /// pulls carry cumulative counts read at transmission time).
    fn enqueue(&mut self, session: SessionId, target: NodeId, class: PullClass) {
        let q = self.per_session.entry(session).or_default();
        if q.len() >= PULL_QUEUE_CAP {
            return;
        }
        if q.is_empty() {
            self.rotation.push_back(session);
        }
        q.push_back((target, class));
    }

    /// Next (session, target, class) in round-robin order.
    fn next(&mut self) -> Option<(SessionId, NodeId, PullClass)> {
        let session = self.rotation.pop_front()?;
        let q = self
            .per_session
            .get_mut(&session)
            .expect("rotation entry has a queue");
        let (target, class) = q.pop_front().expect("queued session has a pull");
        if q.is_empty() {
            self.per_session.remove(&session);
        } else {
            self.rotation.push_back(session);
        }
        Some((session, target, class))
    }

    /// Drop a session's pending pulls (on completion).
    fn forget(&mut self, session: SessionId) {
        self.per_session.remove(&session);
        self.rotation.retain(|&s| s != session);
    }
}

/// The per-host Polyraptor transport agent.
pub struct PolyraptorAgent {
    cfg: PrConfig,
    node: NodeId,
    seed: u64,
    send_sessions: BTreeMap<SessionId, SenderSession>,
    recv_sessions: BTreeMap<SessionId, ReceiverSession>,
    /// The shared pull scheduler.
    pulls: PullScheduler,
    pacer_armed: bool,
    sweep_armed: bool,
    active_recv: usize,
    /// Completed-session records (read by the experiment harness).
    pub records: Vec<SessionRecord>,
    /// (session, dead sender) strandings this host observed via
    /// host-failure notifications.
    pub stranded_sessions: u64,
    /// Strandings for which a surviving replica was re-targeted (the
    /// rest had no survivor and ride on the keep-alive sweep until the
    /// dead host revives).
    pub retargeted_sessions: u64,
    /// (session, revived sender) re-admissions via host-revival
    /// notifications — strandings that were later undone.
    pub unstranded_sessions: u64,
    /// Real-oracle encoders this host's senders built. A session's
    /// replicas share one encoder ([`SessionSpec`] carries it), so summed
    /// over all hosts this counts one per object sent, not one per
    /// replica; always 0 under the counting oracle. Only the sum is
    /// meaningful: which replica builds is whichever starts first — in a
    /// sharded run, in wall-clock time.
    pub objects_encoded: u64,
    /// Flow-span telemetry: session open/close and recovery marks, in
    /// the order recorded (time-ordered — marks are appended at event
    /// time). Empty unless [`PrConfig::record_spans`] is set; collected
    /// post-run by `workload::telemetry`.
    pub spans: Vec<FlowSpanEvent>,
}

impl PolyraptorAgent {
    /// New agent for `node`. The seed parameterizes this host's
    /// deterministic draws (decode-overhead sampling).
    pub fn new(node: NodeId, cfg: PrConfig, seed: u64) -> Self {
        Self {
            cfg,
            node,
            seed,
            send_sessions: BTreeMap::new(),
            recv_sessions: BTreeMap::new(),
            pulls: PullScheduler::default(),
            pacer_armed: false,
            sweep_armed: false,
            active_recv: 0,
            records: Vec::new(),
            stranded_sessions: 0,
            retargeted_sessions: 0,
            unstranded_sessions: 0,
            objects_encoded: 0,
            spans: Vec::new(),
        }
    }

    /// Append a span mark if span recording is on. `peer` is the sender
    /// involved, or `None` for session-level marks.
    fn mark_span(&mut self, at: SimTime, sid: SessionId, peer: Option<NodeId>, mark: SpanMark) {
        if self.cfg.record_spans {
            self.spans.push(FlowSpanEvent {
                at,
                session: u64::from(sid.0),
                node: self.node.0,
                peer: peer.map_or(FlowSpanEvent::NO_PEER, |p| p.0),
                mark,
            });
        }
    }

    /// Install a session this host participates in. Call before
    /// `spec.start`, and schedule [`start_token`] at `spec.start` on this
    /// host (the workload helpers do both).
    pub fn install(&mut self, spec: SessionSpec) {
        spec.validate();
        if spec.sender_index(self.node).is_some() {
            self.send_sessions
                .insert(spec.id, SenderSession::new(spec, self.node, &self.cfg));
        } else if spec.receiver_index(self.node).is_some() {
            self.active_recv += 1;
            self.recv_sessions.insert(
                spec.id,
                ReceiverSession::new(spec, self.node, &self.cfg, self.seed),
            );
        } else {
            panic!("host {} is not part of session {}", self.node.0, spec.id.0);
        }
    }

    /// Access a receiver session, finished ones included
    /// (tests/diagnostics).
    pub fn receiver_session(&self, id: SessionId) -> Option<&ReceiverSession> {
        self.recv_sessions.get(&id)
    }

    /// Protocol configuration.
    pub fn config(&self) -> &PrConfig {
        &self.cfg
    }

    // ---- pull machinery -------------------------------------------------

    fn enqueue_pull(
        &mut self,
        session: SessionId,
        target: NodeId,
        class: PullClass,
        ctx: &mut Ctx<PrPayload>,
    ) {
        self.pulls.enqueue(session, target, class);
        if !self.pacer_armed {
            self.pacer_armed = true;
            // Fire immediately; the pacer re-arms itself with spacing.
            ctx.timer_at(ctx.now, pacer_token());
        }
    }

    fn pacer_tick(&mut self, ctx: &mut Ctx<PrPayload>) {
        // Drop stale entries (completed sessions) without pacing cost.
        while let Some((sid, target, class)) = self.pulls.next() {
            let Some(rs) = self.recv_sessions.get_mut(&sid) else {
                continue;
            };
            if rs.done {
                continue;
            }
            let Some(sender_idx) = rs.spec.sender_index(target) else {
                continue;
            };
            // A re-target pull whose survivor died while the pull sat in
            // the queue must be dropped, not transmitted: it would burn
            // the round's symbol budget on a corpse and undersize the
            // batches of the remaining survivors. (Recover pulls are
            // different — when *every* sender is dead they double as the
            // sweep's revival probe, so they always go out.)
            if class == PullClass::Retarget && rs.sender_stranded(sender_idx) {
                continue;
            }
            rs.pulls_sent += 1;
            // Cumulative count and recovery batch, read *now* — a
            // delayed pull carries the freshest information at the
            // moment it leaves.
            let (nudge, batch) = match class {
                PullClass::Credit => {
                    rs.note_pull_sent(sender_idx);
                    (false, 0)
                }
                PullClass::Recover => (true, rs.take_repull_batch(sender_idx, REPULL_BATCH_CAP)),
                PullClass::Retarget => (true, rs.take_retarget_batch(sender_idx, REPULL_BATCH_CAP)),
            };
            let count = rs.report_count(sender_idx);
            ctx.send(Packet {
                src: self.node,
                dst: Dest::Host(target),
                flow: FlowId(rq::rand::hash2(
                    u64::from(sid.0),
                    u64::from(self.node.0) ^ 0x9011,
                )),
                size: CONTROL_BYTES,
                payload: PrPayload::Pull {
                    session: sid,
                    count,
                    nudge,
                    batch,
                },
            });
            // One pull per spacing interval: re-arm and stop. Recovery
            // re-pulls can each trigger a window-sized refill burst, so
            // they re-arm with the wider recovery spacing.
            let spacing = match class {
                PullClass::Credit => PULL_SPACING_NS,
                PullClass::Recover | PullClass::Retarget => REPULL_SPACING_NS,
            };
            ctx.timer_after(spacing, pacer_token());
            return;
        }
        self.pacer_armed = false;
    }

    /// A host-failure notification arrived: strand every receive
    /// session pulling from `dead` and re-target the remaining need at
    /// each session's surviving replicas (one re-target re-pull per
    /// survivor; the batches are sized at transmission time and jointly
    /// capped by what the decode still needs). Sessions whose every
    /// sender is dead stay on the keep-alive sweep — only a revival can
    /// save them, and the sweep keeps probing for exactly that.
    ///
    /// The notice is per host, not per session, so it also reaches
    /// sessions on `dead` still waiting for their start timer. Their
    /// stranding is recorded (the dead sender's blind window is written
    /// off, sweeps skip it) but nothing is pulled: the session has
    /// nothing in flight to re-target, and a pull now would finish it
    /// before it starts. Its start timer asks the survivors as usual.
    fn on_host_failure(&mut self, dead: NodeId, ctx: &mut Ctx<PrPayload>) {
        let mut stranded: Vec<SessionId> = Vec::new();
        let mut retargets: Vec<(SessionId, NodeId)> = Vec::new();
        for (sid, rs) in self.recv_sessions.iter_mut() {
            if rs.done || !rs.mark_sender_stranded(dead) {
                continue;
            }
            self.stranded_sessions += 1;
            stranded.push(*sid);
            let survivors = rs.surviving_senders();
            if survivors.is_empty() || ctx.now < rs.spec.start {
                continue;
            }
            self.retargeted_sessions += 1;
            rs.begin_recovery_round();
            for s in survivors {
                retargets.push((*sid, s));
            }
        }
        for sid in stranded {
            self.mark_span(ctx.now, sid, Some(dead), SpanMark::Stranded);
        }
        for (sid, target) in retargets {
            self.mark_span(ctx.now, sid, Some(target), SpanMark::Retarget);
            self.enqueue_pull(sid, target, PullClass::Retarget, ctx);
        }
        self.arm_sweep(ctx);
    }

    /// A host-revival notification arrived: re-admit `revived` to every
    /// incomplete receive session that had stranded it, and make sure
    /// the keep-alive sweep is running. Deliberately nothing else: the
    /// sweep's probing re-pulls are the liveness signal (a revived
    /// sender answers the next probe and the self-clocked pull loop
    /// restarts from there), and the write-off minted at stranding
    /// stands — no credit crosses the strand/revive boundary.
    fn on_host_revival(&mut self, revived: NodeId, ctx: &mut Ctx<PrPayload>) {
        let mut unstranded: Vec<SessionId> = Vec::new();
        for (sid, rs) in self.recv_sessions.iter_mut() {
            if rs.done || !rs.unstrand_sender(revived) {
                continue;
            }
            self.unstranded_sessions += 1;
            unstranded.push(*sid);
        }
        for sid in unstranded {
            self.mark_span(ctx.now, sid, Some(revived), SpanMark::Unstranded);
        }
        self.arm_sweep(ctx);
    }

    fn arm_sweep(&mut self, ctx: &mut Ctx<PrPayload>) {
        if !self.sweep_armed && self.active_recv > 0 {
            self.sweep_armed = true;
            ctx.timer_after(SWEEP_INTERVAL_NS, sweep_token());
        }
    }

    fn sweep(&mut self, ctx: &mut Ctx<PrPayload>) {
        self.sweep_armed = false;
        if self.active_recv == 0 {
            return;
        }
        let now = ctx.now;
        let mut rounds: Vec<SessionId> = Vec::new();
        let mut repulls: Vec<(SessionId, NodeId)> = Vec::new();
        for (sid, rs) in self.recv_sessions.iter_mut() {
            if rs.done || now.since(rs.last_activity) < RETRANSMIT_TIMEOUT_NS || now < rs.spec.start
            {
                continue;
            }
            // Quiet session: nothing is left in flight, so the stranded
            // estimates are live loss. Open a recovery round and re-pull
            // every affected sender. The pull also restarts a sender
            // whose initial window vanished entirely.
            rs.last_activity = now;
            rs.begin_recovery_round();
            rounds.push(*sid);
            for target in rs.recovery_targets() {
                repulls.push((*sid, target));
            }
        }
        for sid in rounds {
            self.mark_span(now, sid, None, SpanMark::PullRound);
        }
        for (sid, target) in repulls {
            self.mark_span(now, sid, Some(target), SpanMark::Repull);
            self.enqueue_pull(sid, target, PullClass::Recover, ctx);
        }
        self.arm_sweep(ctx);
    }

    // ---- receiver-side completion ---------------------------------------

    fn complete_session(&mut self, sid: SessionId, ctx: &mut Ctx<PrPayload>) {
        let rs = self
            .recv_sessions
            .get_mut(&sid)
            .expect("completing unknown session");
        rs.done = true;
        self.active_recv -= 1;
        self.pulls.forget(sid);
        let record = rs.record(self.node, ctx.now);
        // Tell every sender this receiver is satisfied.
        for &s in rs.spec.senders.clone().iter() {
            ctx.send(Packet {
                src: self.node,
                dst: Dest::Host(s),
                flow: FlowId(rq::rand::hash2(u64::from(sid.0), 0xF14)),
                size: CONTROL_BYTES,
                payload: PrPayload::Fin { session: sid },
            });
        }
        self.records.push(record);
        self.mark_span(ctx.now, sid, None, SpanMark::Close);
    }

    fn start_as_receiver(&mut self, sid: SessionId, ctx: &mut Ctx<PrPayload>) {
        let Some(rs) = self.recv_sessions.get_mut(&sid) else {
            return;
        };
        if rs.done {
            return;
        }
        if rs.spec.initiator == Initiator::Receiver && !rs.started {
            rs.started = true;
            // Ask every replica to start streaming.
            for &s in rs.spec.senders.clone().iter() {
                ctx.send(Packet {
                    src: self.node,
                    dst: Dest::Host(s),
                    flow: FlowId(rq::rand::hash2(u64::from(sid.0), 0x0E0)),
                    size: CONTROL_BYTES,
                    payload: PrPayload::Req { session: sid },
                });
            }
        }
        self.mark_span(ctx.now, sid, None, SpanMark::Open);
        self.arm_sweep(ctx);
    }
}

impl Agent<PrPayload> for PolyraptorAgent {
    fn on_packet(&mut self, pkt: Packet<PrPayload>, ctx: &mut Ctx<PrPayload>) {
        match pkt.payload {
            PrPayload::Symbol {
                session,
                esi,
                sender_idx,
                trimmed,
                body,
            } => {
                let Some(rs) = self.recv_sessions.get_mut(&session) else {
                    return;
                };
                if rs.done {
                    return; // late tail symbols after completion
                }
                if trimmed {
                    rs.on_trimmed(sender_idx, esi, ctx.now);
                    self.enqueue_pull(session, pkt.src, PullClass::Credit, ctx);
                } else if rs.on_symbol(sender_idx, esi, body, ctx.now) {
                    self.complete_session(session, ctx);
                } else {
                    self.enqueue_pull(session, pkt.src, PullClass::Credit, ctx);
                }
                self.arm_sweep(ctx);
            }
            PrPayload::Pull {
                session,
                count,
                nudge,
                batch,
            } => {
                if let Some(ss) = self.send_sessions.get_mut(&session) {
                    ss.on_pull(pkt.src, count, nudge, batch, self.node, &self.cfg, ctx);
                    self.objects_encoded += u64::from(ss.take_built_encoder());
                }
            }
            PrPayload::Req { session } => {
                if let Some(ss) = self.send_sessions.get_mut(&session) {
                    ss.on_req(self.node, &self.cfg, ctx);
                    self.objects_encoded += u64::from(ss.take_built_encoder());
                }
            }
            PrPayload::Fin { session } => {
                let complete = match self.send_sessions.get_mut(&session) {
                    Some(ss) => ss.on_fin(pkt.src, self.node, &self.cfg, ctx),
                    None => false,
                };
                if complete {
                    self.send_sessions.remove(&session);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<PrPayload>) {
        match token >> 56 {
            KIND_START => {
                let sid = SessionId((token & 0xFFFF_FFFF) as u32);
                if let Some(ss) = self.send_sessions.get_mut(&sid) {
                    if ss.spec.initiator == Initiator::Sender {
                        ss.start(self.node, &self.cfg, ctx);
                        self.objects_encoded += u64::from(ss.take_built_encoder());
                    }
                    // Receiver-initiated senders wait for Req.
                } else {
                    self.start_as_receiver(sid, ctx);
                }
            }
            KIND_PACER => self.pacer_tick(ctx),
            KIND_SWEEP => self.sweep(ctx),
            KIND_HOSTFAIL => {
                let dead = NodeId((token & 0xFFFF_FFFF) as u32);
                self.on_host_failure(dead, ctx);
            }
            KIND_HOSTUP => {
                let revived = NodeId((token & 0xFFFF_FFFF) as u32);
                self.on_host_revival(revived, ctx);
            }
            other => panic!("unknown timer kind {other}"),
        }
    }
}
