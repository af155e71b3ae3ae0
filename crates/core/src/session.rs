//! Session descriptors.
//!
//! Polyraptor sessions are established out-of-band (the paper assumes the
//! application — e.g. a distributed storage system — knows the
//! participants): the workload installs the same [`SessionSpec`] at every
//! participating host before the start time, and schedules a start timer.

use std::sync::{Arc, Mutex, Weak};

use netsim::{GroupId, NodeId, SimTime};

use crate::config::SYMBOL_SIZE;
use crate::oracle::write_session_object_at;
use crate::wire::SessionId;

/// The contiguous source-symbol range `[lo, hi)` that sender `idx` of
/// `s` replicas owns, for an object of `k` source symbols: first `jl`
/// parts of size `il`, then the rest of size `is` (RFC 6330 partition
/// function). [`EsiLayout`] puts it at the front of each sender's
/// emission sequence (the systematic prefix).
pub fn source_partition(k: usize, s: usize, idx: usize) -> (usize, usize) {
    let (il, is, jl, _js) = rq::params::partition(k, s);
    if idx < jl {
        (idx * il, (idx + 1) * il)
    } else {
        (jl * il + (idx - jl) * is, jl * il + (idx - jl + 1) * is)
    }
}

/// One sender's share of a session's ESI space (the paper's §2
/// multi-source layout): sender `index` of `senders` emits its
/// [`source_partition`] in order, then the repair ESIs
/// `k + index + j·senders` for `j = 0, 1, …`, so the union of any
/// senders' emissions is duplicate-free. Senders allocate ESIs with
/// [`EsiLayout::esi`]; receivers invert them with
/// [`EsiLayout::ordinal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsiLayout {
    k: u32,
    senders: u32,
    index: u32,
    /// The source partition `[lo, hi)`.
    lo: u32,
    hi: u32,
}

impl EsiLayout {
    /// Sender `index` of `senders`, for an object of `k` source symbols.
    pub fn new(k: usize, senders: usize, index: usize) -> Self {
        assert!(index < senders, "sender {index} of {senders}");
        let (lo, hi) = source_partition(k, senders, index);
        let fit = |v: usize| u32::try_from(v).expect("an ESI layout fits the u32 ESI space");
        Self {
            k: fit(k),
            senders: fit(senders),
            index: fit(index),
            lo: fit(lo),
            hi: fit(hi),
        }
    }

    /// The ESI of this sender's emission number `n` (from 0).
    ///
    /// # Panics
    /// Panics when the repair stride runs past the `u32` ESI space.
    pub fn esi(&self, n: u64) -> u32 {
        let sources = u64::from(self.hi - self.lo);
        let esi = if n < sources {
            u64::from(self.lo) + n
        } else {
            u64::from(self.k) + u64::from(self.index) + (n - sources) * u64::from(self.senders)
        };
        u32::try_from(esi).expect("repair ESI space exhausted (u32)")
    }

    /// How many emissions this sender had made once it sent `esi`
    /// (`ordinal(esi(n)) == Some(n + 1)`), or `None` when `esi` is not
    /// in this sender's sequence.
    pub fn ordinal(&self, esi: u32) -> Option<u64> {
        if esi < self.k {
            (self.lo..self.hi)
                .contains(&esi)
                .then(|| u64::from(esi - self.lo) + 1)
        } else {
            let j = (esi - self.k).checked_sub(self.index)?;
            j.is_multiple_of(self.senders)
                .then(|| u64::from(self.hi - self.lo) + u64::from(j / self.senders) + 1)
        }
    }
}

/// Lifecycle of a receiver-side session as the fault-churn machinery
/// sees it (see `ReceiverSession::state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Transfer in progress, every sender believed alive.
    Active,
    /// At least one sender is known dead (host failure): its remaining
    /// share has been written off and — when a surviving replica exists
    /// — re-targeted there. The session still completes; the state
    /// records that it needed the paper's data redundancy to do so.
    /// Not terminal: a `HostUp` notification re-admits the revived
    /// sender (`ReceiverSession::unstrand_sender`) and the state flows
    /// back to [`SessionState::Active`].
    Stranded,
    /// Object recovered; FINs sent.
    Complete,
}

/// Which side initiates the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initiator {
    /// The (single) sender pushes the initial window at `start` — storage
    /// *write* / replication (one-to-many).
    Sender,
    /// The (single) receiver requests symbols at `start` — storage
    /// *read* / fetch (many-to-one, or unicast fetch).
    Receiver,
}

/// A transport session: one object moving from `senders` to `receivers`.
///
/// Supported shapes (the paper's §2):
/// * one sender → one receiver (unicast, either initiator);
/// * one sender → many receivers (multicast write, requires `group`);
/// * many senders → one receiver (multi-source read).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Unique id.
    pub id: SessionId,
    /// Object size in bytes.
    pub data_len: usize,
    /// Sending replicas (all hold the whole object).
    pub senders: Vec<NodeId>,
    /// Receivers.
    pub receivers: Vec<NodeId>,
    /// Multicast trees (required iff `receivers.len() > 1`). Senders
    /// spray symbols across these trees — the multicast analogue of
    /// per-packet path spraying ("symbols can be sprayed in the network,
    /// exploiting all available (equal-cost) paths", paper §2).
    pub groups: Vec<GroupId>,
    /// When the initiator kicks the session off.
    pub start: SimTime,
    /// Who initiates.
    pub initiator: Initiator,
    /// Background sessions are excluded from reported metrics.
    pub background: bool,
    /// The object's real-oracle encoder, shared by every clone of this
    /// spec (see [`SessionSpec::encoder`]). Weak: the senders that
    /// started own the encoder, and the last one's FIN frees it.
    encoder: Arc<Mutex<Weak<rq::Encoder>>>,
}

impl SessionSpec {
    /// The encoder over this session's canonical object
    /// ([`crate::session_object`]), and whether this call had to build it.
    ///
    /// Every replica of a real-oracle session sends symbols of the same
    /// bytes, so the specs installed at the participating hosts (clones
    /// of one another) share one encoder: the first caller builds it
    /// under the lock, later callers get the same `Arc` for as long as
    /// any of them still holds it. The encoded bytes are a pure function
    /// of `(id, data_len)` and building takes no simulated time, so who
    /// builds never shows in a run's results.
    pub(crate) fn encoder(&self) -> (Arc<rq::Encoder>, bool) {
        let mut slot = self
            .encoder
            .lock()
            .expect("a sibling session panicked while encoding");
        if let Some(enc) = slot.upgrade() {
            return (enc, false);
        }
        let enc = Arc::new(object_encoder(self.id, self.data_len, SYMBOL_SIZE));
        *slot = Arc::downgrade(&enc);
        (enc, true)
    }

    /// Whether some started sender currently holds this session's shared
    /// encoder (diagnostics: never under the counting oracle, and not
    /// after the last sender saw its FIN).
    pub fn encoder_live(&self) -> bool {
        self.encoder
            .lock()
            .expect("a sibling session panicked while encoding")
            .strong_count()
            > 0
    }

    /// One-to-one write (sender initiates).
    pub fn unicast(
        id: SessionId,
        data_len: usize,
        sender: NodeId,
        receiver: NodeId,
        start: SimTime,
    ) -> Self {
        Self {
            id,
            data_len,
            senders: vec![sender],
            receivers: vec![receiver],
            groups: Vec::new(),
            start,
            initiator: Initiator::Sender,
            background: false,
            encoder: Arc::default(),
        }
    }

    /// One-to-many replication write over a registered multicast group.
    pub fn multicast(
        id: SessionId,
        data_len: usize,
        sender: NodeId,
        receivers: Vec<NodeId>,
        groups: Vec<GroupId>,
        start: SimTime,
    ) -> Self {
        assert!(
            receivers.len() > 1,
            "multicast needs >1 receivers (use unicast)"
        );
        assert!(!groups.is_empty(), "multicast needs at least one tree");
        Self {
            id,
            data_len,
            senders: vec![sender],
            receivers,
            groups,
            start,
            initiator: Initiator::Sender,
            background: false,
            encoder: Arc::default(),
        }
    }

    /// Many-to-one fetch: the receiver pulls from every replica.
    pub fn multi_source(
        id: SessionId,
        data_len: usize,
        senders: Vec<NodeId>,
        receiver: NodeId,
        start: SimTime,
    ) -> Self {
        assert!(!senders.is_empty(), "need at least one sender");
        Self {
            id,
            data_len,
            senders,
            receivers: vec![receiver],
            groups: Vec::new(),
            start,
            initiator: Initiator::Receiver,
            background: false,
            encoder: Arc::default(),
        }
    }

    /// Mark as background traffic (builder style).
    pub fn background(mut self) -> Self {
        self.background = true;
        self
    }

    /// The index of `node` among the senders, if it is one.
    pub fn sender_index(&self, node: NodeId) -> Option<usize> {
        self.senders.iter().position(|&s| s == node)
    }

    /// The index of `node` among the receivers, if it is one.
    pub fn receiver_index(&self, node: NodeId) -> Option<usize> {
        self.receivers.iter().position(|&r| r == node)
    }

    /// Validate structural invariants (panics on violation — these are
    /// workload construction bugs).
    pub fn validate(&self) {
        assert!(self.data_len > 0, "session {} carries no data", self.id.0);
        assert!(!self.senders.is_empty() && !self.receivers.is_empty());
        assert!(
            self.senders.len() == 1 || self.receivers.len() == 1,
            "many-to-many sessions are not a Polyraptor shape"
        );
        assert_eq!(
            self.receivers.len() > 1,
            !self.groups.is_empty(),
            "multicast trees required iff >1 receivers"
        );
        if self.senders.len() > 1 {
            assert_eq!(
                self.initiator,
                Initiator::Receiver,
                "multi-source must be receiver-initiated"
            );
        }
        for s in &self.senders {
            assert!(!self.receivers.contains(s), "host cannot send to itself");
        }
    }
}

/// An encoder over session `id`'s canonical object of `data_len` bytes
/// in symbols of `symbol_size` bytes. It keeps only the object's parity:
/// like a replica's store, the generator hands it the source bytes again
/// whenever a symbol needs them.
pub(crate) fn object_encoder(id: SessionId, data_len: usize, symbol_size: usize) -> rq::Encoder {
    rq::Encoder::from_source(data_len, symbol_size, move |at, out| {
        write_session_object_at(id, at, out)
    })
    .expect("session object is non-empty and fits one block")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        let s = SessionSpec::unicast(SessionId(1), 100, NodeId(0), NodeId(1), SimTime::ZERO);
        s.validate();
        let m = SessionSpec::multi_source(
            SessionId(2),
            100,
            vec![NodeId(1), NodeId(2)],
            NodeId(0),
            SimTime::ZERO,
        );
        m.validate();
        assert_eq!(m.initiator, Initiator::Receiver);
        assert_eq!(m.sender_index(NodeId(2)), Some(1));
        assert_eq!(m.sender_index(NodeId(9)), None);
        assert_eq!(m.receiver_index(NodeId(0)), Some(0));
    }

    #[test]
    #[should_panic(expected = "send to itself")]
    fn self_transfer_rejected() {
        SessionSpec::unicast(SessionId(1), 100, NodeId(0), NodeId(0), SimTime::ZERO).validate();
    }

    #[test]
    #[should_panic(expected = ">1 receivers")]
    fn multicast_needs_multiple_receivers() {
        let _ = SessionSpec::multicast(
            SessionId(1),
            100,
            NodeId(0),
            vec![NodeId(1)],
            vec![netsim::GroupId(0)],
            SimTime::ZERO,
        );
    }

    #[test]
    fn background_builder() {
        let s = SessionSpec::unicast(SessionId(1), 100, NodeId(0), NodeId(1), SimTime::ZERO)
            .background();
        assert!(s.background);
    }

    proptest::proptest! {
        /// Each sender's layout inverts its own emissions — the whole
        /// source partition and a few strides of repairs — and claims
        /// none of another sender's.
        #[test]
        fn esi_layout_inverts_its_own_emissions_only(k in 1usize..3000, senders in 1usize..=8) {
            use proptest::prelude::*;
            let layouts: Vec<EsiLayout> =
                (0..senders).map(|i| EsiLayout::new(k, senders, i)).collect();
            for (i, layout) in layouts.iter().enumerate() {
                let emissions = u64::from(layout.hi - layout.lo) + 3 * senders as u64 + 2;
                for n in 0..emissions {
                    let esi = layout.esi(n);
                    prop_assert_eq!(
                        layout.ordinal(esi),
                        Some(n + 1),
                        "k {} senders {} sender {} emission {}", k, senders, i, n
                    );
                    for (j, other) in layouts.iter().enumerate().filter(|&(j, _)| j != i) {
                        prop_assert_eq!(
                            other.ordinal(esi),
                            None,
                            "k {} senders {}: sender {} claims sender {}'s ESI {}",
                            k, senders, j, i, esi
                        );
                    }
                }
            }
        }
    }
}
