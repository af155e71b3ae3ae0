//! Port queues: classic drop-tail and the NDP trimming queue.
//!
//! The NDP switch service discipline (paper §2, citing Handley et al.)
//! keeps two queues per output port:
//!
//! * a short **data queue** — when it overflows, the arriving packet is
//!   *trimmed* to its header and requeued as a control packet instead of
//!   being dropped, so the receiver always learns what was sent;
//! * a **header queue** for control traffic (pulls, ACKs, trimmed
//!   headers) served with strict priority. Headers are ~64 B against
//!   1500 B data packets, so priority service costs little bandwidth but
//!   bounds control-plane latency even under persistent congestion.

use std::collections::VecDeque;

use crate::packet::{Packet, SimPayload};

/// Queue discipline configuration for a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueConfig {
    /// Single FIFO with a packet-count capacity; overflow drops. The TCP
    /// baseline runs on this.
    DropTail {
        /// Maximum queued packets.
        cap_pkts: usize,
    },
    /// NDP dual queue with trimming.
    Ndp {
        /// Data-queue capacity in packets (NDP uses ~8).
        data_cap_pkts: usize,
        /// Header-queue capacity in packets.
        header_cap_pkts: usize,
    },
}

impl QueueConfig {
    /// The NDP configuration used throughout the paper's experiments.
    pub const NDP_DEFAULT: QueueConfig = QueueConfig::Ndp {
        data_cap_pkts: 8,
        header_cap_pkts: 1024,
    };
    /// A shallow drop-tail queue typical of commodity data-centre
    /// switches (~48 KB per port at 1500 B packets); both the paper and
    /// the classic Incast studies assume this regime.
    pub const DROPTAIL_DEFAULT: QueueConfig = QueueConfig::DropTail { cap_pkts: 32 };
}

/// What happened to an enqueued packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// Stored intact.
    Queued,
    /// Payload trimmed; header stored in the priority queue.
    Trimmed,
    /// Dropped entirely.
    Dropped,
}

/// Counters a queue maintains (read by the experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets enqueued intact.
    pub enqueued: u64,
    /// Packets trimmed to headers.
    pub trimmed: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Bytes dequeued for transmission.
    pub tx_bytes: u64,
    /// High-water mark of the data queue, in packets.
    pub max_depth: usize,
}

/// A single output-port queue.
#[derive(Debug)]
pub struct PortQueue<P> {
    config: QueueConfig,
    data: VecDeque<Packet<P>>,
    headers: VecDeque<Packet<P>>,
    stats: QueueStats,
}

impl<P: SimPayload> PortQueue<P> {
    /// New empty queue with the given discipline.
    pub fn new(config: QueueConfig) -> Self {
        Self {
            config,
            data: VecDeque::new(),
            headers: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// The admission rule [`PortQueue::enqueue`] and [`PortQueue::pass`]
    /// share: the capacity `pkt` is tested against, and whether it
    /// belongs in the data queue (the one `max_depth` tracks) rather
    /// than the header queue.
    fn admission(&self, pkt: &Packet<P>) -> (usize, bool) {
        match self.config {
            QueueConfig::DropTail { cap_pkts } => (cap_pkts, true),
            QueueConfig::Ndp {
                header_cap_pkts, ..
            } if pkt.payload.is_control() => (header_cap_pkts, false),
            QueueConfig::Ndp { data_cap_pkts, .. } => (data_cap_pkts, true),
        }
    }

    /// Offer a packet to the queue.
    pub fn enqueue(&mut self, pkt: Packet<P>) -> Enqueued {
        let (cap, is_data) = self.admission(&pkt);
        let queue = if is_data {
            &mut self.data
        } else {
            &mut self.headers
        };
        if queue.len() < cap {
            queue.push_back(pkt);
            self.stats.enqueued += 1;
            if is_data {
                self.stats.max_depth = self.stats.max_depth.max(self.data.len());
            }
            return Enqueued::Queued;
        }
        // Data queue full under NDP: trim to header, priority-forward.
        if let QueueConfig::Ndp {
            header_cap_pkts, ..
        } = self.config
        {
            if is_data {
                if let Some(header) = pkt.trimmed() {
                    if self.headers.len() < header_cap_pkts {
                        self.headers.push_back(header);
                        self.stats.trimmed += 1;
                        return Enqueued::Trimmed;
                    }
                }
            }
        }
        self.stats.dropped += 1;
        Enqueued::Dropped
    }

    /// Take the next packet to transmit (headers served with strict
    /// priority under NDP).
    pub fn dequeue(&mut self) -> Option<Packet<P>> {
        let pkt = if let Some(h) = self.headers.pop_front() {
            Some(h)
        } else {
            self.data.pop_front()
        };
        if let Some(ref p) = pkt {
            self.stats.tx_bytes += u64::from(p.size);
        }
        pkt
    }

    /// Count `pkt` through this empty queue without storing it: if
    /// [`PortQueue::enqueue`] would store it intact, leave [`stats`]
    /// exactly as `enqueue` then [`PortQueue::dequeue`] would and
    /// return `true` — the caller transmits the packet itself.
    /// Otherwise (a zero capacity) change nothing and return `false`.
    ///
    /// [`stats`]: PortQueue::stats
    pub fn pass(&mut self, pkt: &Packet<P>) -> bool {
        debug_assert!(self.is_empty(), "only an empty queue passes packets");
        let (cap, is_data) = self.admission(pkt);
        if cap == 0 {
            return false;
        }
        self.stats.enqueued += 1;
        if is_data {
            self.stats.max_depth = self.stats.max_depth.max(1);
        }
        self.stats.tx_bytes += u64::from(pkt.size);
        true
    }

    /// Discard everything queued (fault injection: the port's link or
    /// switch died with packets waiting). Returns the number of packets
    /// lost; the simulator accounts them as fault losses, so the queue's
    /// own `dropped` counter (congestion drops) is not touched.
    pub fn flush(&mut self) -> usize {
        let n = self.data.len() + self.headers.len();
        self.data.clear();
        self.headers.clear();
        n
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.headers.is_empty()
    }

    /// Packets currently queued (data + headers).
    pub fn len(&self) -> usize {
        self.data.len() + self.headers.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dest, FlowId, HEADER_BYTES};
    use crate::topology::NodeId;

    #[derive(Debug, Clone, PartialEq)]
    enum P {
        Data,
        Hdr,
        Pull,
    }

    impl SimPayload for P {
        fn is_control(&self) -> bool {
            matches!(self, P::Hdr | P::Pull)
        }
        fn trim(&self) -> Option<Self> {
            match self {
                P::Data => Some(P::Hdr),
                other => Some(other.clone()),
            }
        }
    }

    fn pkt(payload: P) -> Packet<P> {
        let size = if payload.is_control() {
            HEADER_BYTES
        } else {
            1500
        };
        Packet {
            src: NodeId(0),
            dst: Dest::Host(NodeId(1)),
            flow: FlowId(1),
            size,
            payload,
        }
    }

    #[test]
    fn droptail_drops_at_capacity() {
        let mut q = PortQueue::new(QueueConfig::DropTail { cap_pkts: 2 });
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Queued);
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Queued);
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Dropped);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn ndp_trims_on_overflow() {
        let mut q = PortQueue::new(QueueConfig::Ndp {
            data_cap_pkts: 1,
            header_cap_pkts: 10,
        });
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Queued);
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Trimmed);
        assert_eq!(q.stats().trimmed, 1);
        // The trimmed header is HEADER_BYTES and control-class.
        let first = q.dequeue().unwrap(); // header queue has priority
        assert_eq!(first.size, HEADER_BYTES);
        assert_eq!(first.payload, P::Hdr);
    }

    #[test]
    fn ndp_header_priority() {
        let mut q = PortQueue::new(QueueConfig::NDP_DEFAULT);
        q.enqueue(pkt(P::Data));
        q.enqueue(pkt(P::Pull));
        // The pull arrived second but departs first.
        assert_eq!(q.dequeue().unwrap().payload, P::Pull);
        assert_eq!(q.dequeue().unwrap().payload, P::Data);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn ndp_header_queue_overflow_drops() {
        let mut q = PortQueue::new(QueueConfig::Ndp {
            data_cap_pkts: 1,
            header_cap_pkts: 1,
        });
        assert_eq!(q.enqueue(pkt(P::Pull)), Enqueued::Queued);
        assert_eq!(q.enqueue(pkt(P::Pull)), Enqueued::Dropped);
        // Data overflow with full header queue also drops.
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Queued);
        assert_eq!(q.enqueue(pkt(P::Data)), Enqueued::Dropped);
    }

    #[test]
    fn fifo_order_within_class() {
        let mut q = PortQueue::new(QueueConfig::NDP_DEFAULT);
        let mut a = pkt(P::Data);
        a.flow = FlowId(1);
        let mut b = pkt(P::Data);
        b.flow = FlowId(2);
        q.enqueue(a);
        q.enqueue(b);
        assert_eq!(q.dequeue().unwrap().flow, FlowId(1));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(2));
    }

    /// `pass` on an empty queue counts exactly what `enqueue` then
    /// `dequeue` would: under drop-tail and NDP, for data and control
    /// packets, on a fresh queue and on one with traffic behind it. A
    /// queue that would not store the packet (zero capacity) passes
    /// nothing.
    #[test]
    fn pass_counts_like_enqueue_then_dequeue() {
        let configs = [
            QueueConfig::DROPTAIL_DEFAULT,
            QueueConfig::NDP_DEFAULT,
            QueueConfig::DropTail { cap_pkts: 1 },
            QueueConfig::Ndp {
                data_cap_pkts: 1,
                header_cap_pkts: 1,
            },
        ];
        for config in configs {
            for payload in [P::Data, P::Pull, P::Hdr] {
                for history in [0, 3] {
                    let mut queued = PortQueue::new(config);
                    for _ in 0..history {
                        queued.enqueue(pkt(P::Data));
                        queued.enqueue(pkt(P::Pull));
                    }
                    while queued.dequeue().is_some() {}
                    let mut passed = PortQueue::new(config);
                    passed.stats = queued.stats;
                    let what = format!("{config:?}, {payload:?}, history {history}");
                    assert_eq!(
                        queued.enqueue(pkt(payload.clone())),
                        Enqueued::Queued,
                        "{what}"
                    );
                    assert!(queued.dequeue().is_some(), "{what}");
                    assert!(passed.pass(&pkt(payload.clone())), "{what}");
                    assert_eq!(passed.stats(), queued.stats(), "{what}");
                    assert!(passed.is_empty(), "{what}");
                }
            }
        }
        for config in [
            QueueConfig::DropTail { cap_pkts: 0 },
            QueueConfig::Ndp {
                data_cap_pkts: 0,
                header_cap_pkts: 0,
            },
        ] {
            let mut q = PortQueue::new(config);
            for payload in [P::Data, P::Pull] {
                assert!(!q.pass(&pkt(payload)), "{config:?}");
                assert_eq!(q.stats(), QueueStats::default(), "{config:?}");
            }
        }
    }

    #[test]
    fn tx_bytes_counted() {
        let mut q = PortQueue::new(QueueConfig::NDP_DEFAULT);
        q.enqueue(pkt(P::Data));
        q.enqueue(pkt(P::Pull));
        q.dequeue();
        q.dequeue();
        assert_eq!(q.stats().tx_bytes, 1500 + u64::from(HEADER_BYTES));
    }
}
