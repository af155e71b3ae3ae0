//! Polyraptor wire format.
//!
//! Four packet types ride the fabric:
//!
//! * [`PrPayload::Symbol`] — one encoding symbol (data class). The only
//!   packet type that can be *trimmed*: the switch drops the symbol body
//!   and priority-forwards the header so the receiver still learns a
//!   symbol was coming and can keep its pull clock running.
//! * [`PrPayload::Pull`] — receiver-paced request for one more symbol
//!   (control class, never dropped in practice).
//! * [`PrPayload::Req`] — starts a read (many-to-one) session at a
//!   sender (control).
//! * [`PrPayload::Fin`] — receiver tells a sender its part is complete
//!   (control).
//!
//! Sizes model a 64-byte header (addressing + transport fields) plus the
//! symbol body for full symbol packets.

use std::sync::Arc;

use netsim::{SimPayload, HEADER_BYTES};

/// Globally unique transport-session identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

/// The bytes of a symbol in flight under the real-decoder oracle: a
/// shared handle on the sender's encoder, the symbol being that
/// encoder's `esi`. Cloning it (one per emission, one per multicast
/// branch) copies a pointer; the receiver has the sender's encoder
/// write the symbol straight into its decoder, and a symbol trimmed on
/// the way is never materialised at all.
#[derive(Clone)]
pub struct SymbolBody(Arc<rq::Encoder>);

impl SymbolBody {
    /// The symbols of `encoder`.
    pub fn new(encoder: Arc<rq::Encoder>) -> Self {
        Self(encoder)
    }

    /// The encoder whose symbol this is.
    pub fn encoder(&self) -> &Arc<rq::Encoder> {
        &self.0
    }
}

/// Names the block by its shape, once per packet.
impl std::fmt::Debug for SymbolBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let code = self.0.params();
        write!(f, "SymbolBody(K={}, T={})", code.k, code.symbol_size)
    }
}

/// Two bodies are equal when they are the same encoder.
impl PartialEq for SymbolBody {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for SymbolBody {}

/// Polyraptor packet payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrPayload {
    /// An encoding symbol (or its trimmed header).
    Symbol {
        /// Session this symbol belongs to.
        session: SessionId,
        /// Encoding symbol id.
        esi: u32,
        /// Index of the sending replica (multi-source sessions).
        sender_idx: u8,
        /// True if a switch trimmed the body; only the header arrived.
        trimmed: bool,
        /// Where the symbol's bytes are — only under the real-decoder
        /// oracle (tests/examples); `None` at simulation scale, where the
        /// packet's `size` field models the bytes on the wire.
        body: Option<SymbolBody>,
    },
    /// Receiver-driven request for more symbols. Pulls are *cumulative*
    /// (they report how many of this sender's symbols — full or trimmed —
    /// have arrived so far), so a lost or coalesced pull costs nothing:
    /// the next one carries strictly newer information.
    Pull {
        /// Session being pulled.
        session: SessionId,
        /// Arrivals observed from the targeted sender so far, read at
        /// pull transmission time.
        count: u64,
        /// Keep-alive nudge (from the receiver's retransmit sweep):
        /// forces one emission even if the sender believes the pipe is
        /// full — recovers from lost trimmed-header accounting.
        nudge: bool,
        /// Batched loss write-off, meaningful only on nudges: the
        /// receiver's estimate of symbols it licensed from this sender
        /// that evidently died in the fabric. The write-off is folded
        /// into `count` (stranded symbols consume credit like arrivals,
        /// never beyond what the sender actually emitted — a re-pull
        /// cannot mint credit); a non-zero `batch` additionally tells
        /// the sender to refill the reopened window in one burst,
        /// healing a mass-loss event in one sweep instead of one nudge
        /// per lost symbol.
        batch: u32,
    },
    /// Read-session kick-off: "start sending me symbols".
    Req {
        /// Session to activate.
        session: SessionId,
    },
    /// Receiver is done with this sender.
    Fin {
        /// Completed session.
        session: SessionId,
    },
}

impl PrPayload {
    /// The session this packet belongs to.
    pub fn session(&self) -> SessionId {
        match self {
            PrPayload::Symbol { session, .. }
            | PrPayload::Pull { session, .. }
            | PrPayload::Req { session }
            | PrPayload::Fin { session } => *session,
        }
    }
}

impl SimPayload for PrPayload {
    fn is_control(&self) -> bool {
        match self {
            PrPayload::Symbol { trimmed, .. } => *trimmed,
            _ => true,
        }
    }

    fn trim(&self) -> Option<Self> {
        match self {
            PrPayload::Symbol {
                session,
                esi,
                sender_idx,
                ..
            } => Some(PrPayload::Symbol {
                session: *session,
                esi: *esi,
                sender_idx: *sender_idx,
                trimmed: true,
                body: None, // trimming discards the payload
            }),
            other => Some(other.clone()),
        }
    }
}

/// On-the-wire size of a full symbol packet.
pub const fn symbol_packet_bytes(symbol_size: usize) -> u32 {
    HEADER_BYTES + symbol_size as u32
}

/// On-the-wire size of control packets (pull/req/fin/trimmed header).
pub const CONTROL_BYTES: u32 = HEADER_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    fn body(len: usize) -> SymbolBody {
        SymbolBody::new(Arc::new(rq::Encoder::new(&vec![7u8; len], 1440).unwrap()))
    }

    #[test]
    fn symbol_is_data_until_trimmed() {
        let body = body(48);
        let s = PrPayload::Symbol {
            session: SessionId(1),
            esi: 9,
            sender_idx: 0,
            trimmed: false,
            body: Some(body.clone()),
        };
        assert!(!s.is_control());
        let t = s.trim().unwrap();
        assert!(t.is_control());
        drop(s);
        assert_eq!(
            Arc::strong_count(body.encoder()),
            1,
            "a trimmed header holds no reference on the encoder"
        );
        match t {
            PrPayload::Symbol {
                esi: 9,
                trimmed: true,
                body: None,
                ..
            } => {}
            other => panic!("trim changed identity: {other:?}"),
        }
    }

    #[test]
    fn control_packets_survive_trim_unchanged() {
        let p = PrPayload::Pull {
            session: SessionId(3),
            count: 7,
            nudge: false,
            batch: 0,
        };
        assert!(p.is_control());
        assert_eq!(p.trim().unwrap(), p);
    }

    #[test]
    fn session_accessor() {
        for p in [
            PrPayload::Symbol {
                session: SessionId(5),
                esi: 0,
                sender_idx: 0,
                trimmed: false,
                body: None,
            },
            PrPayload::Pull {
                session: SessionId(5),
                count: 0,
                nudge: false,
                batch: 0,
            },
            PrPayload::Req {
                session: SessionId(5),
            },
            PrPayload::Fin {
                session: SessionId(5),
            },
        ] {
            assert_eq!(p.session(), SessionId(5));
        }
    }

    #[test]
    fn payload_is_small_and_shareable() {
        fn shareable<T: Send + Sync>() {}
        shareable::<PrPayload>();
        // Every queued packet, event and multicast copy carries one.
        assert!(
            std::mem::size_of::<PrPayload>() <= 24,
            "PrPayload grew to {} bytes",
            std::mem::size_of::<PrPayload>()
        );
        let body = body(512 << 10);
        let symbol = PrPayload::Symbol {
            session: SessionId(1),
            esi: 0,
            sender_idx: 0,
            trimmed: false,
            body: Some(body.clone()),
        };
        let branches = vec![symbol.clone(); 3];
        assert_eq!(
            Arc::strong_count(body.encoder()),
            5,
            "a clone shares the encoder, it does not copy bytes"
        );
        assert!(branches.iter().all(|b| *b == symbol), "same encoder");
        assert_ne!(
            symbol,
            PrPayload::Symbol {
                session: SessionId(1),
                esi: 0,
                sender_idx: 0,
                trimmed: false,
                body: Some(self::body(512 << 10)),
            },
            "an equal block elsewhere is another body"
        );
        // Prints the block's shape, none of its bytes.
        let printed = format!("{symbol:?}");
        assert!(printed.contains("SymbolBody(K=365, T=1440)"), "{printed}");
        assert!(printed.len() < 200, "{} bytes of Debug", printed.len());
    }

    #[test]
    fn packet_sizes() {
        assert_eq!(symbol_packet_bytes(1440), 1504);
        assert_eq!(CONTROL_BYTES, 64);
    }
}
