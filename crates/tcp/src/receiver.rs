//! TCP receiver: cumulative ACKs and out-of-order reassembly.

use std::collections::BTreeMap;

use netsim::{Ctx, Dest, FlowId, Packet, SimTime, HEADER_BYTES};

use crate::spec::{ConnRecord, ConnSpec};
use crate::wire::TcpPayload;

/// Receiver-side state for one connection.
pub struct TcpReceiver {
    /// The connection descriptor.
    pub spec: ConnSpec,
    rcv_nxt: u64,
    /// Out-of-order segments: start → end (coalesced).
    ooo: BTreeMap<u64, u64>,
    /// Completion time, once all bytes arrived.
    pub finished: Option<SimTime>,
    /// Duplicate (already-covered) segments seen — a loss/retransmission
    /// indicator for diagnostics.
    pub dup_segments: u64,
}

impl TcpReceiver {
    /// Fresh receiver for `spec`.
    pub fn new(spec: ConnSpec) -> Self {
        spec.validate();
        Self {
            spec,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            finished: None,
            dup_segments: 0,
        }
    }

    fn flow(&self) -> FlowId {
        FlowId(u64::from(self.spec.id.0) << 16 | 0xACE)
    }

    /// Handle a SYN: reply SYN-ACK (idempotent — SYN retransmissions get
    /// fresh SYN-ACKs).
    pub fn on_syn(&mut self, ctx: &mut Ctx<TcpPayload>) {
        ctx.send(Packet {
            src: self.spec.receiver,
            dst: Dest::Host(self.spec.sender),
            flow: self.flow(),
            size: HEADER_BYTES,
            payload: TcpPayload::SynAck { conn: self.spec.id },
        });
    }

    /// Handle a data segment; always answers with the current cumulative
    /// ACK (immediate ACKing — no delayed-ACK timer, see the crate docs).
    /// Returns `true` when the stream just completed.
    pub fn on_data(&mut self, seq: u64, len: u32, ctx: &mut Ctx<TcpPayload>) -> bool {
        let end = seq + u64::from(len);
        if end <= self.rcv_nxt {
            self.dup_segments += 1;
        } else if seq <= self.rcv_nxt {
            // In-order (possibly partially duplicate): advance.
            self.rcv_nxt = end;
            self.drain_ooo();
        } else {
            // Out of order: buffer and coalesce.
            self.insert_ooo(seq, end);
        }
        ctx.send(Packet {
            src: self.spec.receiver,
            dst: Dest::Host(self.spec.sender),
            flow: self.flow(),
            size: HEADER_BYTES,
            payload: TcpPayload::Ack {
                conn: self.spec.id,
                ack: self.rcv_nxt,
            },
        });
        if self.rcv_nxt >= self.spec.bytes && self.finished.is_none() {
            self.finished = Some(ctx.now);
            return true;
        }
        false
    }

    fn insert_ooo(&mut self, seq: u64, end: u64) {
        // Coalesce with any overlapping or adjacent ranges.
        let mut start = seq;
        let mut stop = end;
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=stop)
            .filter(|(_, &e)| e >= start)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.ooo.remove(&s).expect("key just seen");
            start = start.min(s);
            stop = stop.max(e);
        }
        self.ooo.insert(start, stop);
    }

    fn drain_ooo(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
    }

    /// Bytes delivered in order so far.
    pub fn bytes_received(&self) -> u64 {
        self.rcv_nxt.min(self.spec.bytes)
    }

    /// Completion record (panics if not finished — call after `on_data`
    /// returned `true`).
    pub fn record(&self) -> ConnRecord {
        ConnRecord {
            conn: self.spec.id,
            session: self.spec.session,
            bytes: self.spec.bytes,
            start: self.spec.start,
            finish: self.finished.expect("connection not finished"),
            background: self.spec.background,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ConnId;
    use netsim::NodeId;

    fn spec(bytes: u64) -> ConnSpec {
        ConnSpec {
            id: ConnId(1),
            session: 0,
            bytes,
            sender: NodeId(0),
            receiver: NodeId(1),
            start: SimTime::ZERO,
            background: false,
        }
    }

    fn ctx() -> Ctx<TcpPayload> {
        // A scratch context; its queued sends are simply dropped here —
        // receiver unit tests only check reassembly bookkeeping.
        Ctx::detached(SimTime::from_micros(5), NodeId(1))
    }

    #[test]
    fn in_order_delivery() {
        let mut r = TcpReceiver::new(spec(3000));
        let mut c = ctx();
        assert!(!r.on_data(0, 1440, &mut c));
        assert!(!r.on_data(1440, 1440, &mut c));
        assert!(r.on_data(2880, 120, &mut c));
        assert_eq!(r.bytes_received(), 3000);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut r = TcpReceiver::new(spec(4320));
        let mut c = ctx();
        r.on_data(1440, 1440, &mut c); // hole at 0
        assert_eq!(r.bytes_received(), 0);
        r.on_data(2880, 1440, &mut c);
        assert_eq!(r.bytes_received(), 0);
        let done = r.on_data(0, 1440, &mut c); // hole fills; drains ooo
        assert!(done);
        assert_eq!(r.bytes_received(), 4320);
    }

    #[test]
    fn duplicates_counted() {
        let mut r = TcpReceiver::new(spec(2880));
        let mut c = ctx();
        r.on_data(0, 1440, &mut c);
        r.on_data(0, 1440, &mut c);
        assert_eq!(r.dup_segments, 1);
    }

    #[test]
    fn overlapping_ooo_coalesced() {
        let mut r = TcpReceiver::new(spec(10_000));
        let mut c = ctx();
        r.on_data(2000, 1000, &mut c);
        r.on_data(2500, 1000, &mut c); // overlaps previous
        r.on_data(3500, 500, &mut c); // adjacent
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&2000), Some(&4000));
    }
}
