//! TCP NewReno sender state machine.
//!
//! Implements the loss-recovery behaviour whose pathologies motivate the
//! paper: slow start, congestion avoidance, fast retransmit/fast recovery
//! with NewReno partial-ACK handling (RFC 6582), and a retransmission
//! timeout with exponential backoff floored at `rto_min` — the 200 ms
//! floor being what turns synchronized short flows into Incast collapse
//! (Figure 1c).

use netsim::{Ctx, Dest, FlowId, Packet, SimTime, HEADER_BYTES};

use crate::spec::{
    ConnSpec, INIT_CWND_SEGS, MSS, RECV_WINDOW_SEGS, RTO_INIT_NS, RTO_MAX_NS, RTO_MIN_NS,
};
use crate::wire::TcpPayload;

/// Sender connection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderPhase {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Transferring data.
    Established,
    /// All bytes acknowledged.
    Done,
}

/// Sender-side state for one connection.
pub struct TcpSender {
    /// The connection descriptor.
    pub spec: ConnSpec,
    /// Phase.
    pub phase: SenderPhase,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    srtt: Option<f64>,
    rttvar: f64,
    rto_ns: u64,
    backoff: u32,
    /// Deadline of the armed retransmission timer (None = disarmed).
    pub rto_deadline: Option<SimTime>,
    /// When the agent's simulator timer for this connection fires (the
    /// earliest one in flight); always at or before `rto_deadline`.
    pub(crate) rto_timer: Option<SimTime>,
    /// One timed segment for RTT sampling: (covers-up-to, sent-at).
    timed: Option<(u64, SimTime)>,
    /// Diagnostics.
    pub timeouts: u64,
    /// Diagnostics.
    pub fast_retransmits: u64,
    /// Diagnostics.
    pub segments_sent: u64,
}

impl TcpSender {
    /// Fresh sender for `spec`.
    pub fn new(spec: ConnSpec) -> Self {
        spec.validate();
        Self {
            phase: SenderPhase::SynSent,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (INIT_CWND_SEGS * MSS) as f64,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto_ns: RTO_INIT_NS,
            backoff: 0,
            rto_deadline: None,
            rto_timer: None,
            timed: None,
            timeouts: 0,
            fast_retransmits: 0,
            segments_sent: 0,
            spec,
        }
    }

    fn flow(&self) -> FlowId {
        // Stable per-connection flow id: per-flow ECMP pins one path.
        self.spec.data_flow()
    }

    /// Open the connection: transmit SYN and arm the SYN timeout.
    pub fn open(&mut self, ctx: &mut Ctx<TcpPayload>) {
        debug_assert_eq!(self.phase, SenderPhase::SynSent);
        self.send_syn(ctx);
    }

    /// Transmit a SYN and arm the timer that resends it.
    fn send_syn(&mut self, ctx: &mut Ctx<TcpPayload>) {
        ctx.send(Packet {
            src: self.spec.sender,
            dst: Dest::Host(self.spec.receiver),
            flow: self.flow(),
            size: HEADER_BYTES,
            payload: TcpPayload::Syn { conn: self.spec.id },
        });
        self.arm_rto(ctx.now);
    }

    /// SYN-ACK received: start the stream.
    pub fn on_synack(&mut self, ctx: &mut Ctx<TcpPayload>) {
        if self.phase != SenderPhase::SynSent {
            return; // duplicate SYN-ACK
        }
        self.phase = SenderPhase::Established;
        // The handshake gives the first RTT sample.
        self.sample_rtt(ctx.now.since(self.spec.start));
        self.backoff = 0;
        self.try_send(ctx);
    }

    /// Cumulative ACK received.
    pub fn on_ack(&mut self, ack: u64, ctx: &mut Ctx<TcpPayload>) {
        if self.phase != SenderPhase::Established {
            return;
        }
        if ack > self.snd_una {
            self.on_new_ack(ack, ctx);
        } else if ack == self.snd_una && self.snd_nxt > self.snd_una {
            self.on_dup_ack(ctx);
        }
        if self.snd_una >= self.spec.bytes {
            self.phase = SenderPhase::Done;
            self.rto_deadline = None;
        } else {
            self.try_send(ctx);
        }
    }

    fn on_new_ack(&mut self, ack: u64, ctx: &mut Ctx<TcpPayload>) {
        let mss = MSS as f64;
        // RTT sample (Karn: `timed` is cleared on any retransmission).
        if let Some((covers, sent)) = self.timed {
            if ack >= covers {
                let sample = ctx.now.since(sent);
                self.sample_rtt(sample);
                self.timed = None;
            }
        }
        let newly = ack - self.snd_una;
        self.snd_una = ack;
        // After an RTO rolled snd_nxt back, ACKs of pre-timeout segments
        // can land beyond it; never let snd_nxt trail snd_una.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        self.backoff = 0;

        if self.in_recovery {
            if ack >= self.recover {
                // Full ACK: leave recovery, deflate to ssthresh.
                self.in_recovery = false;
                self.cwnd = self.ssthresh.max(2.0 * mss);
                self.dupacks = 0;
            } else {
                // Partial ACK (NewReno): retransmit the next hole,
                // deflate by the amount acked, inflate by one MSS.
                self.retransmit_head(ctx);
                self.cwnd = (self.cwnd - newly as f64 + mss).max(2.0 * mss);
            }
        } else {
            self.dupacks = 0;
            if self.cwnd < self.ssthresh {
                self.cwnd += mss; // slow start
            } else {
                self.cwnd += mss * mss / self.cwnd; // congestion avoidance
            }
        }
        // Outstanding data remains: restart the timer; else disarm.
        if self.snd_una < self.snd_nxt {
            self.arm_rto(ctx.now);
        } else {
            self.rto_deadline = None;
        }
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx<TcpPayload>) {
        let mss = MSS as f64;
        if self.in_recovery {
            self.cwnd += mss; // inflation per extra dup
            return;
        }
        self.dupacks += 1;
        if self.dupacks == 3 {
            // Fast retransmit + fast recovery.
            self.fast_retransmits += 1;
            let flight = (self.snd_nxt - self.snd_una) as f64;
            self.ssthresh = (flight / 2.0).max(2.0 * mss);
            self.recover = self.snd_nxt;
            self.in_recovery = true;
            self.retransmit_head(ctx);
            self.cwnd = self.ssthresh + 3.0 * mss;
        }
    }

    /// The retransmission timer fired (agent verifies the deadline).
    pub fn on_rto(&mut self, ctx: &mut Ctx<TcpPayload>) {
        match self.phase {
            SenderPhase::SynSent => {
                // Lost SYN: resend with backoff.
                self.timeouts += 1;
                self.backoff = (self.backoff + 1).min(10);
                self.send_syn(ctx);
            }
            SenderPhase::Established => {
                self.timeouts += 1;
                let mss = MSS as f64;
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0 * mss);
                self.cwnd = mss;
                self.in_recovery = false;
                self.dupacks = 0;
                self.timed = None;
                // Go-back-N: everything past snd_una is presumed lost.
                self.snd_nxt = self.snd_una;
                self.backoff = (self.backoff + 1).min(10);
                self.try_send(ctx);
                self.arm_rto(ctx.now);
            }
            SenderPhase::Done => {}
        }
    }

    /// Transmit as much new data as the send window (min of cwnd and the
    /// receiver's advertised window) allows.
    fn try_send(&mut self, ctx: &mut Ctx<TcpPayload>) {
        let rwnd = (RECV_WINDOW_SEGS * MSS) as f64;
        loop {
            let inflight = self.snd_nxt - self.snd_una;
            if self.snd_nxt >= self.spec.bytes {
                return;
            }
            if (inflight + MSS) as f64 > self.cwnd.min(rwnd) + (MSS - 1) as f64 {
                // window check with sub-MSS tolerance (send if a full MSS
                // fits when rounding the window up to whole segments).
                return;
            }
            let len = MSS.min(self.spec.bytes - self.snd_nxt) as u32;
            self.send_segment(self.snd_nxt, len, false, ctx);
            self.snd_nxt += u64::from(len);
            if self.rto_deadline.is_none() {
                self.arm_rto(ctx.now);
            }
        }
    }

    fn retransmit_head(&mut self, ctx: &mut Ctx<TcpPayload>) {
        let len = MSS.min(self.spec.bytes - self.snd_una) as u32;
        self.timed = None; // Karn's rule
        self.send_segment(self.snd_una, len, true, ctx);
        self.arm_rto(ctx.now);
    }

    fn send_segment(&mut self, seq: u64, len: u32, rtx: bool, ctx: &mut Ctx<TcpPayload>) {
        self.segments_sent += 1;
        if !rtx && self.timed.is_none() {
            self.timed = Some((seq + u64::from(len), ctx.now));
        }
        ctx.send(Packet {
            src: self.spec.sender,
            dst: Dest::Host(self.spec.receiver),
            flow: self.flow(),
            size: len + HEADER_BYTES,
            payload: TcpPayload::Data {
                conn: self.spec.id,
                seq,
                len,
                rtx,
            },
        });
    }

    fn sample_rtt(&mut self, sample_ns: u64) {
        let s = sample_ns as f64;
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - s).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * s);
            }
        }
        let rto = self.srtt.expect("just set") + 4.0 * self.rttvar;
        self.rto_ns = (rto as u64).clamp(RTO_MIN_NS, RTO_MAX_NS);
    }

    fn arm_rto(&mut self, now: SimTime) {
        let backed_off = self
            .rto_ns
            .saturating_mul(1u64 << self.backoff.min(6))
            .min(RTO_MAX_NS);
        self.rto_deadline = Some(now + backed_off);
    }

    /// Next unacknowledged byte (diagnostics).
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Current smoothed RTO in nanoseconds (diagnostics).
    pub fn rto_ns(&self) -> u64 {
        self.rto_ns
    }
}
