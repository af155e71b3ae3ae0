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
//! symbol body for full symbol packets. No packet carries the body
//! itself: a symbol names its session and ESI, and a real-decoder
//! receiver has its own encoder write the bytes that ESI stands for
//! ([`crate::Oracle`]), so every payload is a few plain words.

use netsim::{SimPayload, HEADER_BYTES};

/// Globally unique transport-session identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

/// Polyraptor packet payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let mut header = *self;
        if let PrPayload::Symbol { trimmed, .. } = &mut header {
            *trimmed = true;
        }
        Some(header)
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

    #[test]
    fn symbol_is_data_until_trimmed() {
        let s = PrPayload::Symbol {
            session: SessionId(1),
            esi: 9,
            sender_idx: 2,
            trimmed: false,
        };
        assert!(!s.is_control());
        let t = s.trim().unwrap();
        assert!(t.is_control());
        assert_eq!(
            t,
            PrPayload::Symbol {
                session: SessionId(1),
                esi: 9,
                sender_idx: 2,
                trimmed: true,
            },
            "trimming sets the flag and keeps the identity"
        );
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
        fn shareable<T: Copy + Send + Sync>() {}
        shareable::<PrPayload>();
        // Every queued packet, event and multicast copy carries one.
        assert!(
            std::mem::size_of::<PrPayload>() <= 24,
            "PrPayload grew to {} bytes",
            std::mem::size_of::<PrPayload>()
        );
    }

    #[test]
    fn packet_sizes() {
        assert_eq!(symbol_packet_bytes(1440), 1504);
        assert_eq!(CONTROL_BYTES, 64);
    }
}
