//! The discrete-event simulation driver.
//!
//! The simulator owns the topology, one [`PortQueue`] per (node, port),
//! the multicast group tables, and one transport [`Agent`] per host. It
//! processes packet arrivals, port transmissions, agent timers, and
//! scripted fabric faults (see [`crate::fault`]) in deterministic
//! `(time, rank, sequence)` order, where `rank` 0 is the global
//! control plane (faults and reroutes) and rank `n + 1` is node `n`:
//! every event is keyed by the node that *authored* it and a per-node
//! sequence counter, so the order is a pure function of the simulated
//! causality — not of the order the implementation happened to push
//! events — and the event loop (see [`crate::shard`]) reproduces one
//! schedule byte for byte at every shard count.
//!
//! Hosts hand packets to their NIC queue; switches forward within the
//! packet's routing layer (assigned per flow, see
//! [`LayerAssign`], with re-assignment away from layers whose path to
//! the destination is dead) picking among the layer's advertised ports
//! by per-flow ECMP hash or per-packet spraying, or along a registered
//! multicast tree (built on the minimal layer). The link model is
//! store-and-forward: a packet arrives at the next node after
//! serialization + propagation.
//!
//! When a fault event executes mid-run, the simulator flushes the dead
//! element's queues, recomputes the routing tables against the live
//! [`FaultMask`], repairs every registered multicast tree, and drops
//! packets that were in flight on the failed link (they "arrive" on a
//! wire that no longer exists). All of it is accounted in
//! [`FabricStats`]: `lost_to_fault`, `reroutes`, `trees_repaired`.
//!
//! Internally the simulator keeps two event queues: the node queue
//! (arrivals, port releases, timers — everything a single node authors
//! and a single node consumes), a calendar queue (see `crate::evq`),
//! and the much smaller global heap (faults and reroutes, which mutate
//! fabric-wide state). The node queue carries only events that do
//! work: a port's release (`Dequeue`) is reserved when its packet goes
//! on the wire but pushed only once a packet is waiting behind it (see
//! `PortTx`). The event loop (see [`crate::shard`]) gives every shard
//! its own node queue — one shard runs on the simulator's — pops node
//! events up to the next global event's instant, and executes the
//! global heap at synchronisation barriers.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use crate::evq::{Ev, EvKey, EventQueue};
use crate::fault::{FaultAction, FaultMask, FaultPlan};
use crate::packet::{Dest, GroupId, Packet, SimPayload};
use crate::queue::{Enqueued, PortQueue, QueueConfig, QueueStats};
use crate::rng::Pcg32;
use crate::shard::ShardPlan;
use crate::telemetry::{AnomalyKind, FabricEvent, NoTelemetry, PortProbe, TelemetrySink};
use crate::time::{serialization_ns, SimTime};
use crate::topology::{NodeId, NodeKind, RoutingPolicy, Topology};

/// Transport hook: one agent runs on every host and receives packets and
/// timers addressed to that host. Implementations queue outgoing packets
/// and timers on the [`Ctx`]; the simulator applies them after the
/// callback returns (no re-entrancy).
pub trait Agent<P: SimPayload> {
    /// A packet destined to this host (or a group it joined) arrived.
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<P>);
    /// A previously scheduled timer fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<P>);
}

/// Effect buffer handed to agent callbacks.
pub struct Ctx<P> {
    /// Current simulation time.
    pub now: SimTime,
    /// The host this agent runs on.
    pub node: NodeId,
    sends: Vec<Packet<P>>,
    timers: Vec<(SimTime, u64)>,
}

impl<P> Ctx<P> {
    fn new(now: SimTime, node: NodeId) -> Self {
        Self {
            now,
            node,
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// A detached context for unit-testing agents outside a simulator.
    /// Effects queued on it are inspectable via [`Ctx::queued_sends`] and
    /// simply discarded on drop.
    pub fn detached(now: SimTime, node: NodeId) -> Self {
        Self::new(now, node)
    }

    /// Packets queued so far (test inspection).
    pub fn queued_sends(&self) -> &[Packet<P>] {
        &self.sends
    }

    /// Timers queued so far (test inspection).
    pub fn queued_timers(&self) -> &[(SimTime, u64)] {
        &self.timers
    }

    /// Transmit a packet from this host (enters the NIC queue).
    pub fn send(&mut self, pkt: Packet<P>) {
        self.sends.push(pkt);
    }

    /// Fire `on_timer(token)` at absolute time `at` (the current
    /// instant included).
    ///
    /// # Panics
    /// The simulator panics when it applies the callback's effects if
    /// `at` lies before [`Ctx::now`]: a past-dated timer would drag the
    /// clock backwards.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }

    /// Fire `on_timer(token)` after `delay_ns`.
    pub fn timer_after(&mut self, delay_ns: u64, token: u64) {
        let at = self.now + delay_ns;
        self.timers.push((at, token));
    }
}

/// Path selection among equal-cost ports (within the assigned routing
/// layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Per-flow ECMP: hash of (flow id, switch id) picks the port —
    /// every packet of a flow follows one path (TCP-friendly).
    EcmpFlow,
    /// Per-packet spraying: uniform random port per packet (what
    /// Polyraptor wants; reordering is harmless under fountain coding).
    Spray,
}

/// How unicast traffic is assigned to routing layers (see
/// [`RoutingPolicy`]) — the pluggable flow→layer strategy, and the
/// extension point for FatPaths-style flowlet/loss-driven switching.
/// With a single-layer (minimal) policy it degenerates to classic
/// single-table forwarding.
///
/// Note there is deliberately no per-*packet* (or per-hop) layer
/// spraying: a packet that mixes layers across hops has no single
/// weighted-distance potential bounding its walk, so loop freedom and
/// the 2× stretch bound would be lost. Per-packet path diversity comes
/// from [`RouteMode::Spray`] *within* the assigned layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerAssign {
    /// Per-flow hash (the FatPaths default): every packet of a flow
    /// rides one layer, so a flow sees stable path characteristics and
    /// every switch agrees on the layer without per-packet state.
    /// The first switch a packet enters stamps the assigned layer into
    /// the packet (exactly FatPaths' source stamping); downstream hops
    /// honour the stamp. Flows are re-assigned away from a layer whose
    /// path to the destination is dead at a hop (no advertised port, or
    /// every advertised port locally known down) — at most one move per
    /// (switch, flow, destination) per convergence window, counted in
    /// [`FabricStats::layer_reassignments`]; the moves are forgotten
    /// when routes converge (layers only reweight links, so after a
    /// repair every layer reaches everything the fabric reaches).
    FlowHash,
}

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Queue discipline on switch ports.
    pub switch_queue: QueueConfig,
    /// Queue discipline on host NICs (deep drop-tail by default: host
    /// memory is plentiful; transports self-limit).
    pub host_queue: QueueConfig,
    /// Path selection policy (within the assigned layer).
    pub route: RouteMode,
    /// Flow→layer assignment strategy (irrelevant under a single-layer
    /// routing policy).
    pub layer_assign: LayerAssign,
    /// Control-plane convergence time: a detected fault kills traffic
    /// immediately, but routes (and multicast trees) are only recomputed
    /// this many nanoseconds later — during the window, packets keep
    /// being forwarded into the dead element and are lost. 0 = instant
    /// reroute (an idealised control plane).
    pub reroute_delay_ns: u64,
    /// RNG seed (spraying decisions).
    pub seed: u64,
    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// 2(b)).
    pub parallelism: usize,
    /// Event-loop shards (see [`crate::shard`]): 1 = one shard, inline
    /// on the calling thread (the default), 0 = one shard per available
    /// core, `n` = partition the fabric into up to `n` switch-group
    /// shards and run them on scoped threads under conservative
    /// time-window synchronisation. Results are byte-identical per seed
    /// at every setting — a throughput knob, never a behaviour knob.
    pub shards: usize,
}

impl SimConfig {
    /// NDP-style fabric (Polyraptor runs): trimming switches + spraying.
    pub fn ndp(seed: u64) -> Self {
        Self {
            switch_queue: QueueConfig::NDP_DEFAULT,
            host_queue: QueueConfig::DropTail { cap_pkts: 100_000 },
            route: RouteMode::Spray,
            layer_assign: LayerAssign::FlowHash,
            reroute_delay_ns: 0,
            seed,
            parallelism: 1,
            shards: 1,
        }
    }

    /// Classic fabric (TCP runs): drop-tail switches + per-flow ECMP.
    pub fn classic(seed: u64) -> Self {
        Self {
            switch_queue: QueueConfig::DROPTAIL_DEFAULT,
            host_queue: QueueConfig::DropTail { cap_pkts: 100_000 },
            route: RouteMode::EcmpFlow,
            layer_assign: LayerAssign::FlowHash,
            reroute_delay_ns: 0,
            seed,
            parallelism: 1,
            shards: 1,
        }
    }
}

/// Internal payload wrapper carrying the packet's routing-layer stamp.
///
/// The first switch a packet enters assigns its layer and stamps it
/// here ([`LAYER_UNSTAMPED`] until then); downstream switches honour
/// the stamp, so layer assignment needs no fabric-global state — the
/// property that lets shards forward without sharing a map. Queues and
/// events carry `Packet<Stamped<P>>`; agents only ever see the bare
/// `P` (packets are unwrapped at delivery and wrapped at the NIC).
#[derive(Debug, Clone)]
pub(crate) struct Stamped<P> {
    pub(crate) inner: P,
    pub(crate) layer: u8,
}

/// Sentinel layer stamp: not yet assigned by a switch.
pub(crate) const LAYER_UNSTAMPED: u8 = u8::MAX;

impl<P: SimPayload> SimPayload for Stamped<P> {
    fn is_control(&self) -> bool {
        self.inner.is_control()
    }
    fn trim(&self) -> Option<Self> {
        // Trimming keeps the stamp: a trimmed header still rides its
        // flow's layer.
        self.inner.trim().map(|t| Stamped {
            inner: t,
            layer: self.layer,
        })
    }
}

fn wrap_packet<P>(pkt: Packet<P>) -> Packet<Stamped<P>> {
    Packet {
        src: pkt.src,
        dst: pkt.dst,
        flow: pkt.flow,
        size: pkt.size,
        payload: Stamped {
            inner: pkt.payload,
            layer: LAYER_UNSTAMPED,
        },
    }
}

fn unwrap_packet<P>(pkt: Packet<Stamped<P>>) -> Packet<P> {
    Packet {
        src: pkt.src,
        dst: pkt.dst,
        flow: pkt.flow,
        size: pkt.size,
        payload: pkt.payload.inner,
    }
}

/// A packet on the wire. Boxed so the event stays thin; the `Option`
/// lets dispatch `take` the packet and keep the emptied box for the
/// next transmission (see [`Lane::boxes`]).
pub(crate) type WireBox<P> = Box<Option<Packet<Stamped<P>>>>;

/// Events a single node authors and a single node consumes. These live
/// on the node queue (per-shard in a sharded run).
#[derive(Debug)]
pub(crate) enum NodeEvent<P> {
    /// Packet fully received at the far end of `(from, port)`
    /// (store-and-forward). Carrying the transmitting side lets the
    /// dispatcher drop packets whose link died while they were on the
    /// wire. Boxed: `Arrive` dwarfs the other variants, and the queue
    /// moves and sorts events by value — a thin event is most of the
    /// event loop's memory traffic.
    Arrive {
        /// Transmitting node.
        from: NodeId,
        /// Transmitting port on `from`.
        port: u16,
        /// The packet (`Some` from transmission to dispatch).
        pkt: WireBox<P>,
    },
    /// Port `port` of `node` finished a transmission; send the next
    /// one. Queued only when a packet was waiting at some point
    /// while the wire was taken (see [`PortTx`]).
    Dequeue(NodeId, u16),
    /// Agent timer.
    Timer(NodeId, u64),
}

/// Fabric-global events: they mutate state every shard reads (fault
/// mask, routing tables, multicast trees), so they execute alone at
/// synchronisation barriers. They live on their own
/// small heap.
#[derive(Debug)]
pub(crate) enum GlobalEvent {
    /// Scripted fabric fault (see [`crate::fault`]).
    Fault(FaultAction),
    /// Deferred route recomputation (control-plane convergence after a
    /// fault; coalesces multiple pending faults into one recompute).
    Reroute,
}

/// Rank of global events in the `(time, rank, seq)` key: they sort
/// before any node event at the same instant (node `n` has rank
/// `n + 1`), which pins the convergence-window semantics — a reroute
/// at `t` is visible to every packet arriving at `t`.
pub(crate) const GLOBAL_RANK: u32 = 0;

/// Aggregated fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets delivered to host agents.
    pub delivered: u64,
    /// Packets dropped anywhere in the fabric (congestion).
    pub dropped: u64,
    /// Packets trimmed to headers.
    pub trimmed: u64,
    /// Events processed: packet arrivals, agent timers, global fault
    /// and reroute events, and the port releases that found — or at
    /// some point had — a packet waiting for the wire. A release of a
    /// port nobody queued behind is never an event.
    pub events: u64,
    /// Packets lost to fabric faults: flushed from a dead element's
    /// queues, in flight on a failed link, arriving at a dead switch, or
    /// addressed to a destination the fault mask disconnected.
    pub lost_to_fault: u64,
    /// Route recomputations triggered by fault events (incremental
    /// repairs and full recomputations combined).
    pub reroutes: u64,
    /// Reroutes served by incremental [`Topology::repair_routes`]
    /// surgery instead of a full recomputation.
    pub reroutes_incremental: u64,
    /// (layer, access-switch) route columns rebuilt by a per-column
    /// search across all reroutes (full recomputations count every
    /// column; host and access-link faults rebuild none).
    pub route_dests_rebuilt: u64,
    /// Multicast trees rebuilt during reroutes.
    pub trees_repaired: u64,
    /// Down+up pairs of the same element that both landed inside one
    /// convergence window: the pair cancels out of the pending mask
    /// delta, so the deferred reroute sees a no-op — a flapping link
    /// costs its flushed packets, never a route recomputation.
    pub flaps_coalesced: u64,
    /// Reroutes whose delta contained restorations that were healed by
    /// bounded restore surgery (per-destination rebuilds only where a
    /// distance could shrink) instead of a full recomputation.
    pub restores_incremental: u64,
    /// Per-layer utilisation: unicast packets forwarded at switches,
    /// indexed by the routing layer that carried them (single-layer
    /// policies count everything in slot 0; slots past the policy's
    /// layer count stay 0).
    pub layer_forwarded: [u64; RoutingPolicy::MAX_LAYERS],
    /// Per-layer share of [`FabricStats::trimmed`]: trims suffered by
    /// unicast packets at the switch hop that forwarded them, indexed by
    /// the routing layer that carried them. Host-NIC and multicast trims
    /// count in the global total only, so the array can sum below it.
    pub layer_trimmed: [u64; RoutingPolicy::MAX_LAYERS],
    /// Per-layer share of [`FabricStats::dropped`], attributed like
    /// [`FabricStats::layer_trimmed`].
    pub layer_dropped: [u64; RoutingPolicy::MAX_LAYERS],
    /// Flows moved away from a layer whose path to the destination was
    /// dead at a hop — either no advertised port there, or every
    /// advertised port locally known down — onto a live layer. At most
    /// one move per (switch, flow, destination) per convergence window.
    pub layer_reassignments: u64,
    /// Synchronisation epochs in which two or more shard workers met
    /// at a barrier (0 at one shard). Shard-machinery counter: it
    /// varies with the shard count by construction — compare runs
    /// across shard counts with [`FabricStats::shard_invariant`].
    pub shard_epochs: u64,
    /// Packets handed between shards through the per-epoch mailboxes
    /// (0 at one shard; shard-machinery counter, see
    /// [`FabricStats::shard_invariant`]).
    pub cross_shard_packets: u64,
    /// Epochs in which a shard's window closed before it could execute
    /// a single local event — the conservative horizon held it back (0
    /// at one shard; shard-machinery counter, see
    /// [`FabricStats::shard_invariant`]).
    pub horizon_stalls: u64,
    /// The run's critical path in events: per window the count of the
    /// busiest shard, plus one per global event (every shard waits on
    /// it). [`FabricStats::events`] ÷ this is the speed-up ceiling of
    /// the partition — exact per (seed, shard count), whatever machine
    /// counts it (0 at one shard; shard-machinery counter, see
    /// [`FabricStats::shard_invariant`]).
    pub shard_critical_events: u64,
}

impl FabricStats {
    /// Accumulate another counter set into this one (all fields are
    /// additive; used to merge per-shard lanes into run totals).
    pub(crate) fn absorb(&mut self, other: &FabricStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.trimmed += other.trimmed;
        self.events += other.events;
        self.lost_to_fault += other.lost_to_fault;
        self.reroutes += other.reroutes;
        self.reroutes_incremental += other.reroutes_incremental;
        self.route_dests_rebuilt += other.route_dests_rebuilt;
        self.trees_repaired += other.trees_repaired;
        self.flaps_coalesced += other.flaps_coalesced;
        self.restores_incremental += other.restores_incremental;
        for i in 0..RoutingPolicy::MAX_LAYERS {
            self.layer_forwarded[i] += other.layer_forwarded[i];
            self.layer_trimmed[i] += other.layer_trimmed[i];
            self.layer_dropped[i] += other.layer_dropped[i];
        }
        self.layer_reassignments += other.layer_reassignments;
        self.shard_epochs += other.shard_epochs;
        self.cross_shard_packets += other.cross_shard_packets;
        self.horizon_stalls += other.horizon_stalls;
        self.shard_critical_events += other.shard_critical_events;
    }

    /// These counters with the shard-machinery fields
    /// ([`FabricStats::shard_epochs`], [`FabricStats::cross_shard_packets`],
    /// [`FabricStats::horizon_stalls`],
    /// [`FabricStats::shard_critical_events`]) zeroed. Every other field is
    /// byte-identical across shard counts per seed; the machinery
    /// counters describe the runner, not the simulated fabric, so
    /// cross-shard-count comparisons go through this view.
    pub fn shard_invariant(&self) -> FabricStats {
        let mut s = *self;
        s.shard_epochs = 0;
        s.cross_shard_packets = 0;
        s.horizon_stalls = 0;
        s.shard_critical_events = 0;
        s
    }
}

/// Canonical identity of a failable element, for flap tracking: links
/// are keyed by the lower of their two directed `(node, port)` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultKey {
    Link(u32, u16),
    Node(u32),
}

/// A registered multicast group: membership is retained so the
/// forwarding tree can be rebuilt when faults change the fabric.
pub(crate) struct Group {
    sender: NodeId,
    receivers: Vec<NodeId>,
    pub(crate) tree: Tree,
}

/// A multicast forwarding tree, flat: looked up once per multicast hop.
#[derive(Default)]
pub(crate) struct Tree {
    /// One entry per tree node, ascending by node: the node and the
    /// range of `ports` holding its out-ports.
    hops: Vec<(NodeId, u16, u16)>,
    ports: Vec<u16>,
}

impl Tree {
    /// The tree's out-ports at `node`, if the tree visits it. A tree
    /// is a dozen nodes in two cache lines: a linear scan, with none
    /// of a binary search's mispredicted branches.
    fn ports_at(&self, node: NodeId) -> Option<&[u16]> {
        let &(_, start, end) = self.hops.iter().find(|hop| hop.0 == node)?;
        Some(&self.ports[start as usize..end as usize])
    }

    /// Every tree node with its out-ports, ascending by node.
    pub(crate) fn hops(&self) -> impl Iterator<Item = (NodeId, &[u16])> {
        self.hops
            .iter()
            .map(|&(node, start, end)| (node, &self.ports[start as usize..end as usize]))
    }
}

/// Per-switch flat open-addressing memo of layer re-assignments, keyed
/// by `(flow, destination)` — the CSR-flattening treatment applied to
/// the old fabric-global `HashMap` on the forwarding hot path. Exact
/// full-key compare (no folded-hash false hits), power-of-two capacity,
/// lazy allocation (a healthy fabric never allocates), cleared at every
/// applied reroute. Per-switch rather than global so shards never share
/// forwarding state.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerMemo {
    keys: Vec<(u64, u32)>,
    vals: Vec<u8>,
    len: usize,
}

/// Empty-slot sentinel in [`LayerMemo::vals`] (never a valid layer:
/// layers are bounded by [`RoutingPolicy::MAX_LAYERS`]).
const MEMO_EMPTY: u8 = u8::MAX;

fn memo_hash(flow: u64, dst: u32) -> u64 {
    let mut z = flow ^ (u64::from(dst) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LayerMemo {
    /// Index of the key's slot: its current one, or the empty slot an
    /// insert would claim.
    fn slot(&self, flow: u64, dst: u32) -> usize {
        let mask = self.vals.len() - 1;
        let mut i = memo_hash(flow, dst) as usize & mask;
        loop {
            if self.vals[i] == MEMO_EMPTY || self.keys[i] == (flow, dst) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, flow: u64, dst: u32) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        let i = self.slot(flow, dst);
        (self.vals[i] != MEMO_EMPTY).then(|| self.vals[i])
    }

    fn insert(&mut self, flow: u64, dst: u32, layer: u8) {
        debug_assert_ne!(layer, MEMO_EMPTY);
        // Grow at 7/8 load so the linear probe stays short.
        if self.vals.is_empty() || self.len * 8 >= self.vals.len() * 7 {
            self.grow();
        }
        let i = self.slot(flow, dst);
        if self.vals[i] == MEMO_EMPTY {
            self.keys[i] = (flow, dst);
            self.len += 1;
        }
        self.vals[i] = layer;
    }

    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.vals.fill(MEMO_EMPTY);
            self.len = 0;
        }
    }

    fn grow(&mut self) {
        let cap = (self.vals.len() * 2).max(16);
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![(0, 0); cap];
        self.vals = vec![MEMO_EMPTY; cap];
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != MEMO_EMPTY {
                let i = self.slot(k.0, k.1);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// Transmit state of one port. The wire is taken until the port's
/// *release* event — a `Dequeue` keyed `(free_at, node + 1,
/// release_seq)` — has run; whether it is taken when some event runs
/// is a comparison of keys ([`NodeCell::port_busy`]), so the release
/// only has to be in the event queue when it will find work. Its `seq` is
/// drawn from the cell's counter when the packet goes on the wire;
/// the event itself is pushed (`armed`) the first time a packet waits
/// behind the one in flight, and never for a port nobody queued
/// behind.
///
/// Two facts hold between events: `armed` means exactly one `Dequeue`
/// of this port is in the event queue, keyed as above; and a taken wire with
/// a non-empty queue is always armed — so a port with packets queued
/// and no release armed is idle (parked behind a dead or rate-0 link),
/// which is all a kick has to check.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PortTx {
    /// When the wire frees.
    free_at: SimTime,
    /// The release event's reserved `seq`.
    release_seq: u64,
    /// The release event is in the node queue.
    armed: bool,
}

/// Everything one node owns: its port queues, transmit state, agent,
/// RNG stream, event counter, and layer memo. Cells are stored grouped
/// by shard so the sharded runner can hand each worker a disjoint
/// `&mut` slice; all node-event dispatch mutates exactly one cell.
pub(crate) struct NodeCell<P: SimPayload, A> {
    pub(crate) node: NodeId,
    pub(crate) queues: Vec<PortQueue<Stamped<P>>>,
    tx: Vec<PortTx>,
    pub(crate) agent: Option<A>,
    /// Per-node RNG stream (spraying decisions), forked from the
    /// config seed in node-id order — a function of (seed, node), so
    /// the stream is identical at every shard count.
    pub(crate) rng: Pcg32,
    /// The node's private event counter: the `seq` of every event this
    /// node authors. Advances only when the node dispatches, so it is
    /// shard-invariant.
    pub(crate) seq: u64,
    pub(crate) memo: LayerMemo,
}

impl<P: SimPayload, A> NodeCell<P, A> {
    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Whether `port`'s wire is still taken when the event keyed `now`
    /// runs, i.e. whether `now` sorts before the port's release. (A
    /// port that never transmitted has the release key `(0, node + 1,
    /// 0)`, which no event able to reach it sorts before: wires have
    /// positive latency, so only the node's own timers run at t = 0.)
    fn port_busy(&self, port: u16, now: EvKey) -> bool {
        let tx = &self.tx[port as usize];
        now < (tx.free_at, self.node.0 + 1, tx.release_seq)
    }

    /// Put `port`'s release event in the queue unless it already is.
    fn arm_release(&mut self, port: u16) -> Option<Ev<NodeEvent<P>>> {
        let tx = &mut self.tx[port as usize];
        if tx.armed {
            return None;
        }
        tx.armed = true;
        Some(Ev {
            at: tx.free_at,
            rank: self.node.0 + 1,
            seq: tx.release_seq,
            kind: NodeEvent::Dequeue(self.node, port),
        })
    }

    /// Restart `port`'s transmit loop at `at` if packets are parked on
    /// it: the returned release event, keyed `at`, sends the first of
    /// them. The wire counts as taken until that event has run, so a
    /// second kick at the same instant — or one of a port whose release
    /// is armed anyway — is a no-op.
    pub(crate) fn kick(&mut self, at: SimTime, port: u16) -> Option<Ev<NodeEvent<P>>> {
        let p = port as usize;
        if self.tx[p].armed || self.queues[p].is_empty() {
            return None;
        }
        self.tx[p].free_at = at;
        self.tx[p].release_seq = self.next_seq();
        self.arm_release(port)
    }
}

/// Fabric-global mutable state: the fault mask, route/reroute
/// bookkeeping, multicast groups, and the control plane's own stats
/// and event counter. Only shard worker 0 (under a write lock, at a
/// barrier) mutates it; node dispatch reads it.
pub(crate) struct Control {
    /// Live fault state (dead links/switches). Routing tables lag it by
    /// the configured control-plane convergence delay.
    pub(crate) mask: FaultMask,
    /// A deferred reroute is already scheduled (coalesces bursts of
    /// fault events into one recompute).
    pub(crate) reroute_pending: bool,
    /// Elements that went down since the last applied reroute — an Up
    /// for one of these inside the same convergence window is a
    /// coalesced flap (the pair cancels out of the pending delta).
    pending_down: std::collections::BTreeSet<FaultKey>,
    /// Per-port rate overrides (hotspot/failure injection); keyed by
    /// (node, port), in bits per second. Zero means the link is down.
    rate_overrides: HashMap<(u32, u16), u64>,
    /// Indexed by [`GroupId`]: ids are dense and groups are never
    /// removed. Tree repair iterates in id order (seed-stable).
    pub(crate) groups: Vec<Group>,
    /// Counters the control plane owns (reroutes, repairs, flaps, its
    /// own processed events); node-context counters accumulate in
    /// [`Lane::stats`] and the two merge in [`Simulator::stats`].
    pub(crate) stats: FabricStats,
    /// The global author's private event counter (rank 0 events).
    pub(crate) gseq: u64,
}

/// Emptied [`WireBox`]es a lane keeps for reuse. Bounds what a shard
/// that receives more packets than it sends can hoard; far above the
/// few thousand packets the k = 10 runs ever have in flight.
const LANE_BOXES_MAX: usize = 1 << 14;

/// Per-execution-lane scratch: the stats a lane's node dispatch
/// accumulates, the events it emits (routed to queues or mailboxes by
/// the driver), and the telemetry notes it buffers. The simulator
/// owns one persistent lane, which shard 0 runs on; every other shard
/// worker gets a fresh one whose stats merge into it at run end.
pub(crate) struct Lane<P> {
    pub(crate) stats: FabricStats,
    pub(crate) out: Vec<Ev<NodeEvent<P>>>,
    /// Boxes emptied at dispatch, refilled at the next transmission:
    /// a hop costs a malloc/free pair only while the pool is empty. In
    /// a sharded run a box travels with its packet, so boxes migrate
    /// between lanes.
    boxes: Vec<WireBox<P>>,
    /// Telemetry events emitted during node dispatch, keyed by the
    /// authoring event so the driver can replay them to the sink in
    /// exact key order at synchronisation points.
    pub(crate) notes: Vec<(SimTime, u32, u64, FabricEvent)>,
}

impl<P> Default for Lane<P> {
    fn default() -> Self {
        Self {
            stats: FabricStats::default(),
            out: Vec::new(),
            boxes: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// The read-only context node dispatch runs against: topology and
/// config are immutable for a whole run; control only changes at
/// global events, which are barriers in a sharded run.
pub(crate) struct Env<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) config: &'a SimConfig,
    pub(crate) control: &'a Control,
    pub(crate) tele_on: bool,
}

/// The per-node slice of a global event's effect. The shared part of a
/// fault/reroute (mask, tables, telemetry annotations) applies once;
/// these ops touch individual cells and are applied by whichever
/// execution lane owns the cell, in list order — so per-node effect
/// order is identical at every shard count.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LocalOp {
    /// Drop everything queued on the port, accounting to
    /// `lost_to_fault`.
    Flush(NodeId, u16),
    /// Restart the port's transmit loop if packets are parked on it
    /// (see [`NodeCell::kick`]).
    Kick(NodeId, u16),
    /// Forget every switch's layer re-assignment memo — issued at
    /// every mask change (the memos cache a pure function of the
    /// mask era) and at applied reroutes (repaired tables make every
    /// layer whole again).
    ClearMemos,
}

/// The deterministic packet-level simulator.
///
/// The third type parameter is the telemetry sink (see
/// [`crate::telemetry`]): the default [`NoTelemetry`] monomorphizes
/// every hook to nothing, `Option<Recorder>` is the runtime-switchable
/// sink, and a bare `Recorder` is always-on. Enabling telemetry never
/// perturbs results: no probe events enter the queues and no RNG is
/// consumed, so event order and every random draw are unchanged.
pub struct Simulator<P: SimPayload, A: Agent<P>, T: TelemetrySink = NoTelemetry> {
    pub(crate) topo: Topology,
    pub(crate) config: SimConfig,
    /// Shard partition at the resolved shard count (one shard: the
    /// whole fabric, see [`crate::shard`]).
    pub(crate) plan: ShardPlan,
    /// One cell per node, stored grouped by shard (identity order at
    /// one shard); [`Simulator::cell_of`] maps node id → slot.
    pub(crate) cells: Vec<NodeCell<P, A>>,
    pub(crate) cell_of: Vec<u32>,
    /// The node-event queue (all shards' events between runs).
    pub(crate) nevents: EventQueue<NodeEvent<P>>,
    /// The global-event heap (faults, reroutes).
    pub(crate) gevents: BinaryHeap<Reverse<Ev<GlobalEvent>>>,
    pub(crate) control: Control,
    /// Shard 0's lane; the other workers' stats merge into it at run
    /// end, so its stats accumulate across runs.
    pub(crate) lane: Lane<P>,
    pub(crate) now: SimTime,
    /// Telemetry sink (default: the zero-cost [`NoTelemetry`]).
    pub(crate) telemetry: T,
}

impl<P: SimPayload, A: Agent<P>> Simulator<P, A> {
    /// Build a simulator over a routed topology, with telemetry
    /// compiled out (the zero-cost [`NoTelemetry`] sink).
    pub fn new(topo: Topology, config: SimConfig) -> Self {
        Self::with_telemetry(topo, config, NoTelemetry)
    }
}

impl<P: SimPayload, A: Agent<P>, T: TelemetrySink> Simulator<P, A, T> {
    /// Build a simulator over a routed topology with an explicit
    /// telemetry sink — pass `None::<Recorder>` for a runtime-switchable
    /// sink that is currently off, or `Some(Recorder::new(..))` to
    /// record.
    pub fn with_telemetry(topo: Topology, config: SimConfig, telemetry: T) -> Self {
        let n = topo.node_count();
        let plan = ShardPlan::build(&topo, crate::shard::resolve(config.shards));
        // Per-node RNG streams fork from the config seed in node-id
        // order: a pure function of (seed, node), independent of the
        // shard layout.
        let mut root = Pcg32::new(config.seed);
        let mut rngs: Vec<Pcg32> = (0..n).map(|i| root.fork(i as u64)).collect();
        // Cells are stored grouped by shard (ascending node id within
        // each shard) so the event loop can split them into disjoint
        // contiguous worker slices.
        let mut cell_of = vec![0u32; n];
        for (slot, &node) in plan.order.iter().enumerate() {
            cell_of[node as usize] = slot as u32;
        }
        let mut cells = Vec::with_capacity(n);
        for &node in &plan.order {
            let node = NodeId(node);
            let qc = match topo.kind(node) {
                NodeKind::Host => config.host_queue,
                NodeKind::Switch => config.switch_queue,
            };
            let ports = topo.node_ports(node).len();
            cells.push(NodeCell {
                node,
                queues: (0..ports).map(|_| PortQueue::new(qc)).collect(),
                tx: vec![PortTx::default(); ports],
                agent: None,
                rng: std::mem::replace(&mut rngs[node.0 as usize], Pcg32::new(0)),
                seq: 0,
                memo: LayerMemo::default(),
            });
        }
        Self {
            topo,
            config,
            plan,
            cells,
            cell_of,
            nevents: EventQueue::default(),
            gevents: BinaryHeap::new(),
            control: Control {
                mask: FaultMask::new(),
                reroute_pending: false,
                pending_down: std::collections::BTreeSet::new(),
                rate_overrides: HashMap::new(),
                groups: Vec::new(),
                stats: FabricStats::default(),
                gseq: 0,
            },
            lane: Lane::default(),
            now: SimTime::ZERO,
            telemetry,
        }
    }

    fn cell(&self, node: NodeId) -> &NodeCell<P, A> {
        &self.cells[self.cell_of[node.0 as usize] as usize]
    }

    fn cell_mut(&mut self, node: NodeId) -> &mut NodeCell<P, A> {
        let slot = self.cell_of[node.0 as usize] as usize;
        &mut self.cells[slot]
    }

    /// Push an event authored by `node` (rank `node + 1`, the node's
    /// own counter) onto the node queue.
    fn push_node_event(&mut self, node: NodeId, at: SimTime, kind: NodeEvent<P>) {
        let seq = self.cell_mut(node).next_seq();
        self.nevents.push(Ev {
            at,
            rank: node.0 + 1,
            seq,
            kind,
        });
    }

    /// Degrade (or restore) one direction of a link: packets leaving
    /// `node` through `port` serialize at `rate_bps` instead of the
    /// topology rate. `0` takes the direction down entirely (packets
    /// queue until the queue overflows — a silent failure, the hardest
    /// kind). Used for hotspot/failure-injection experiments; call
    /// between `run_until` slices to script changes over time.
    pub fn set_link_rate(&mut self, node: NodeId, port: u16, rate_bps: u64) {
        assert!(
            (port as usize) < self.topo.node_ports(node).len(),
            "no such port"
        );
        if rate_bps == self.topo.port(node, port).rate_bps {
            self.control.rate_overrides.remove(&(node.0, port));
        } else {
            self.control.rate_overrides.insert((node.0, port), rate_bps);
        }
        // Restoring a downed link must restart its transmit loop if
        // packets queued up in the meantime.
        if rate_bps > 0 {
            let now = self.now;
            if let Some(ev) = self.cell_mut(node).kick(now, port) {
                self.nevents.push(ev);
            }
        }
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fabric counters so far (control-plane and node-lane counters
    /// merged).
    pub fn stats(&self) -> FabricStats {
        let mut s = self.control.stats;
        s.absorb(&self.lane.stats);
        s
    }

    /// The telemetry sink (read-only).
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// Mutable access to the telemetry sink — install a recorder
    /// (`*sim.telemetry_mut() = Some(Recorder::new(..))`) or take the
    /// recorded data out after a run.
    pub fn telemetry_mut(&mut self) -> &mut T {
        &mut self.telemetry
    }

    /// Close the final (partial) telemetry bucket against the current
    /// counters. Call once after the last `run_until` slice, before
    /// taking the recorder out; a no-op when telemetry is off.
    pub fn finish_telemetry(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        // Every switch port's depth and cumulative counters, in
        // deterministic (node, port) order.
        let mut probes = Vec::new();
        let nodes = 0..self.topo.node_count() as u32;
        probe_cells(&self.topo, nodes.map(|n| self.cell(NodeId(n))), &mut probes);
        let (now, stats) = (self.now, self.stats());
        self.telemetry.finish(now, &stats, &probes);
    }

    /// Flag an anomaly on the telemetry sink (freezes a flight-recorder
    /// dump). Workloads call this post-run for transport-level
    /// anomalies — timeouts, stranded sessions — that the fabric cannot
    /// see itself.
    pub fn note_anomaly(&mut self, kind: AnomalyKind) {
        let now = self.now;
        self.telemetry.record(now, FabricEvent::Anomaly(kind));
    }

    /// Queue statistics of one port.
    pub fn queue_stats(&self, node: NodeId, port: u16) -> QueueStats {
        self.cell(node).queues[port as usize].stats()
    }

    /// Sum of queue statistics over every switch port.
    pub fn switch_queue_totals(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for cell in &self.cells {
            if self.topo.kind(cell.node) != NodeKind::Switch {
                continue;
            }
            for q in &cell.queues {
                let s = q.stats();
                total.enqueued += s.enqueued;
                total.trimmed += s.trimmed;
                total.dropped += s.dropped;
                total.tx_bytes += s.tx_bytes;
                total.max_depth = total.max_depth.max(s.max_depth);
            }
        }
        total
    }

    /// Install the agent for a host.
    pub fn set_agent(&mut self, host: NodeId, agent: A) {
        assert_eq!(self.topo.kind(host), NodeKind::Host, "agents run on hosts");
        self.cell_mut(host).agent = Some(agent);
    }

    /// Immutable access to a host's agent.
    pub fn agent(&self, host: NodeId) -> &A {
        self.cell(host).agent.as_ref().expect("no agent installed")
    }

    /// Mutable access to a host's agent (between runs).
    pub fn agent_mut(&mut self, host: NodeId) -> &mut A {
        self.cell_mut(host)
            .agent
            .as_mut()
            .expect("no agent installed")
    }

    /// Iterate over installed agents in node-id order (shard layout
    /// never leaks into report order).
    pub fn agents(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.cell_of.iter().enumerate().filter_map(|(n, &slot)| {
            self.cells[slot as usize]
                .agent
                .as_ref()
                .map(|a| (NodeId(n as u32), a))
        })
    }

    /// Register a multicast tree from `sender` to `receivers`.
    ///
    /// The tree is the union of shortest paths with up-path choices keyed
    /// deterministically by (group, switch), so one copy of each packet
    /// crosses any shared link and branching happens as low as possible —
    /// the DCCast-style forwarding-tree model the paper's multicast
    /// experiments assume.
    pub fn register_group(&mut self, sender: NodeId, receivers: &[NodeId]) -> GroupId {
        assert!(!receivers.is_empty(), "multicast group needs receivers");
        let gid = GroupId(self.control.groups.len() as u32);
        for &r in receivers {
            assert_ne!(r, sender, "sender cannot be a group receiver");
            assert!(
                !self.topo.try_next_ports(sender, r).is_empty(),
                "group receiver {} unreachable from sender {} at registration",
                r.0,
                sender.0
            );
        }
        let tree = build_tree(&self.topo, gid, sender, receivers);
        self.control.groups.push(Group {
            sender,
            receivers: receivers.to_vec(),
            tree,
        });
        gid
    }

    /// Schedule every event of a fault plan for mid-run execution. May
    /// be called multiple times (plans merge).
    ///
    /// # Panics
    /// Panics if any event lies before the current simulation time — a
    /// past-dated event would drag the clock backwards and corrupt every
    /// relative timestamp computed while dispatching it.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            assert!(
                ev.at >= self.now,
                "fault event at {} is in the simulator's past (now {})",
                ev.at,
                self.now
            );
            push_global_event(
                &mut self.control,
                &mut self.gevents,
                ev.at,
                GlobalEvent::Fault(ev.action),
            );
        }
    }

    /// Schedule a timer for a host agent (used by workloads to start
    /// sessions). `at` may be the current instant.
    ///
    /// # Panics
    /// Panics if `at` lies before the current simulation time — a
    /// past-dated timer would drag the clock backwards and corrupt every
    /// relative timestamp computed while dispatching it.
    pub fn schedule_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        assert!(
            at >= self.now,
            "timer at {} is in the simulator's past (now {})",
            at,
            self.now
        );
        self.push_node_event(node, at, NodeEvent::Timer(node, token));
    }

    /// Run until the event queue drains or `deadline` passes. Returns the
    /// number of events processed.
    ///
    /// This is the one event loop ([`crate::shard`]): at one shard it
    /// runs inline on the calling thread, with a resolved shard count
    /// above 1 (see [`SimConfig::shards`]) on scoped worker threads —
    /// byte-identical results, parallel wall clock.
    pub fn run_until(&mut self, deadline: SimTime) -> u64
    where
        P: Send,
        A: Send,
        T: Send + Sync,
    {
        crate::shard::run(self, deadline)
    }

    /// Run until no events remain (workloads bound their own horizon via
    /// timers, so this terminates once all transfers finish).
    pub fn run_to_completion(&mut self) -> u64
    where
        P: Send,
        A: Send,
        T: Send + Sync,
    {
        self.run_until(SimTime::MAX)
    }
}

/// Push a global event (rank 0, the control plane's counter).
fn push_global_event(
    control: &mut Control,
    gevents: &mut BinaryHeap<Reverse<Ev<GlobalEvent>>>,
    at: SimTime,
    kind: GlobalEvent,
) {
    let seq = control.gseq;
    control.gseq += 1;
    gevents.push(Reverse(Ev {
        at,
        rank: GLOBAL_RANK,
        seq,
        kind,
    }));
}

/// Execute the shared part of one global event (mask, tables,
/// telemetry, control stats, the deferred reroute a fault requests) and
/// list its per-node effects in `ops`, for [`apply_local_op`]. Shard
/// worker 0 runs it at a barrier.
pub(crate) fn apply_global_event<T: TelemetrySink>(
    topo: &mut Topology,
    control: &mut Control,
    telemetry: &mut T,
    gevents: &mut BinaryHeap<Reverse<Ev<GlobalEvent>>>,
    reroute_delay_ns: u64,
    ev: Ev<GlobalEvent>,
    ops: &mut Vec<LocalOp>,
) {
    match ev.kind {
        GlobalEvent::Fault(action) => {
            apply_fault_shared(topo, control, telemetry, ev.at, action, ops);
            // Every detected fault (anything but a silent rate change)
            // has routes recomputed one control-plane convergence delay
            // later; a burst of faults shares the pending recompute.
            if !matches!(action, FaultAction::RateChange { .. }) && !control.reroute_pending {
                control.reroute_pending = true;
                let at = ev.at + reroute_delay_ns;
                push_global_event(control, gevents, at, GlobalEvent::Reroute);
            }
        }
        GlobalEvent::Reroute => {
            control.reroute_pending = false;
            reroute_shared(topo, control, telemetry, ev.at, ops);
        }
    }
}

/// Apply one per-node op of the global event at `at` to `cells`, the
/// caller's own: `slot_of` maps a node to its slot there, or `None` for
/// a cell another shard owns (that shard applies the op). Ops run in
/// list order everywhere, so per-node effect order is the same at
/// every shard count.
pub(crate) fn apply_local_op<P: SimPayload, A>(
    cells: &mut [NodeCell<P, A>],
    slot_of: impl Fn(NodeId) -> Option<usize>,
    queue: &mut EventQueue<NodeEvent<P>>,
    stats: &mut FabricStats,
    at: SimTime,
    op: LocalOp,
) {
    match op {
        LocalOp::Flush(node, port) => {
            if let Some(slot) = slot_of(node) {
                let lost = cells[slot].queues[port as usize].flush();
                stats.lost_to_fault += lost as u64;
            }
        }
        LocalOp::Kick(node, port) => {
            if let Some(ev) = slot_of(node).and_then(|slot| cells[slot].kick(at, port)) {
                queue.push(ev);
            }
        }
        LocalOp::ClearMemos => {
            for cell in cells {
                cell.memo.clear();
            }
        }
    }
}

/// Append a probe of every switch port among `cells` (depth and
/// cumulative counters), in the order given.
pub(crate) fn probe_cells<'a, P: SimPayload + 'a, A: 'a>(
    topo: &Topology,
    cells: impl IntoIterator<Item = &'a NodeCell<P, A>>,
    out: &mut Vec<PortProbe>,
) {
    for cell in cells {
        if topo.kind(cell.node) != NodeKind::Switch {
            continue;
        }
        for (p, q) in cell.queues.iter().enumerate() {
            out.push(PortProbe {
                node: cell.node.0,
                port: p as u16,
                depth: q.len() as u32,
                queue: q.stats(),
            });
        }
    }
}

/// The node a node-event executes at (and therefore the shard it
/// belongs to): arrivals execute at the receiving end of the wire.
pub(crate) fn target_of<P>(kind: &NodeEvent<P>, topo: &Topology) -> NodeId {
    match kind {
        NodeEvent::Arrive { from, port, .. } => topo.port(*from, *port).peer,
        NodeEvent::Dequeue(n, _) => *n,
        NodeEvent::Timer(n, _) => *n,
    }
}

/// Canonical flap-tracking key of a link (the lower directed entry).
fn link_key(topo: &Topology, node: NodeId, port: u16) -> FaultKey {
    let back = topo.port(node, port);
    let (a, b) = ((node.0, port), (back.peer.0, back.peer_port));
    let (n, p) = a.min(b);
    FaultKey::Link(n, p)
}

/// The shared part of a fault event: telemetry annotation, fault mask,
/// flap bookkeeping, and rate overrides. Per-node effects (queue
/// flushes, transmit kicks) come back as [`LocalOp`]s in deterministic
/// order.
fn apply_fault_shared<T: TelemetrySink>(
    topo: &Topology,
    control: &mut Control,
    telemetry: &mut T,
    now: SimTime,
    action: FaultAction,
    ops: &mut Vec<LocalOp>,
) {
    // Every mask change starts a new fault era: the layer memos cache
    // a pure function of (tables, mask), so they must be forgotten the
    // moment the mask moves or a stale verdict would depend on *when*
    // a flow was first seen. (RateChange is silent degradation — the
    // mask is untouched and the memos stay valid.)
    if !matches!(action, FaultAction::RateChange { .. }) {
        ops.push(LocalOp::ClearMemos);
    }
    match action {
        FaultAction::LinkDown { node, port } => {
            telemetry.record(now, FabricEvent::LinkDown { node: node.0, port });
            let back = *topo.port(node, port);
            control.mask.fail_link(topo, node, port);
            control.pending_down.insert(link_key(topo, node, port));
            ops.push(LocalOp::Flush(node, port));
            ops.push(LocalOp::Flush(back.peer, back.peer_port));
        }
        FaultAction::LinkUp { node, port } => {
            telemetry.record(now, FabricEvent::LinkUp { node: node.0, port });
            let back = *topo.port(node, port);
            control.mask.restore_link(topo, node, port);
            if control.pending_down.remove(&link_key(topo, node, port)) {
                // Down and up inside one convergence window: the
                // pair cancels out of the pending reroute's delta.
                control.stats.flaps_coalesced += 1;
            }
            ops.push(LocalOp::Kick(node, port));
            ops.push(LocalOp::Kick(back.peer, back.peer_port));
        }
        FaultAction::SwitchDown { switch } => {
            // Hosts are legal victims: a host going down models a
            // host/NIC failure — its access link goes dark and its
            // queued traffic is lost, exactly like a switch victim.
            telemetry.record(now, FabricEvent::NodeDown { node: switch.0 });
            control.mask.fail_node(switch);
            control.pending_down.insert(FaultKey::Node(switch.0));
            for p in 0..topo.node_ports(switch).len() as u16 {
                ops.push(LocalOp::Flush(switch, p));
            }
        }
        FaultAction::SwitchUp { switch } => {
            telemetry.record(now, FabricEvent::NodeUp { node: switch.0 });
            control.mask.restore_node(switch);
            if control.pending_down.remove(&FaultKey::Node(switch.0)) {
                control.stats.flaps_coalesced += 1;
            }
            // Neighbours may have queued towards the repaired node
            // while it routed around (and a repaired host's own NIC
            // may have parked traffic); restart any idle ports.
            for p in 0..topo.node_ports(switch).len() as u16 {
                let back = *topo.port(switch, p);
                ops.push(LocalOp::Kick(back.peer, back.peer_port));
                ops.push(LocalOp::Kick(switch, p));
            }
        }
        FaultAction::RateChange {
            node,
            port,
            rate_bps,
        } => {
            // Silent degradation: both directions change speed, no
            // reroute, no flush (rate 0 blackholes undetected).
            telemetry.record(
                now,
                FabricEvent::RateChange {
                    node: node.0,
                    port,
                    rate_bps,
                },
            );
            let back = *topo.port(node, port);
            for (n, p) in [(node, port), (back.peer, back.peer_port)] {
                if rate_bps == topo.port(n, p).rate_bps {
                    control.rate_overrides.remove(&(n.0, p));
                } else {
                    control.rate_overrides.insert((n.0, p), rate_bps);
                }
                if rate_bps > 0 {
                    ops.push(LocalOp::Kick(n, p));
                }
            }
        }
    }
}

/// The shared part of a deferred reroute: bring the routing tables up
/// to date with the live fault mask — incrementally where the mask only
/// grew (see [`Topology::repair_routes`]), from scratch otherwise —
/// and repair multicast trees (receivers a fault cut off are skipped
/// until a later repair restores them). Dead-link flushes and memo
/// clears come back as [`LocalOp`]s.
fn reroute_shared<T: TelemetrySink>(
    topo: &mut Topology,
    control: &mut Control,
    telemetry: &mut T,
    now: SimTime,
    ops: &mut Vec<LocalOp>,
) {
    control.pending_down.clear();
    // Layer re-assignments were a stale-window measure: the repaired
    // tables below reflect the live mask, and layers only reweight
    // links (never remove them), so every layer reaches everything
    // the fabric reaches again — flows return to their hashed
    // layer. Forgetting the memos also bounds their memory to
    // one convergence window's flows.
    ops.push(LocalOp::ClearMemos);
    let outcome = topo.repair_routes(&control.mask);
    telemetry.record(
        now,
        FabricEvent::Reroute {
            full: outcome.full,
            dests_rebuilt: outcome.dests_rebuilt as u32,
            restored: outcome.restored as u32,
        },
    );
    if outcome.full {
        // The incremental-repair contract says a mid-run reroute
        // never falls back to a full recomputation once routes
        // exist — flag it (and freeze a flight-recorder dump) so a
        // regression is debuggable from the trace alone.
        telemetry.record(now, FabricEvent::Anomaly(AnomalyKind::FullRecompute));
    }
    control.stats.reroutes += 1;
    if !outcome.full {
        control.stats.reroutes_incremental += 1;
        if outcome.restored > 0 {
            control.stats.restores_incremental += 1;
        }
    }
    control.stats.route_dests_rebuilt += outcome.dests_rebuilt as u64;
    // Stale routes during the convergence window may have enqueued
    // packets onto dead links, where the parked transmit loop would
    // strand them unaccounted forever; flush them as fault losses
    // (the new routes can no longer choose those ports).
    for (node, port) in control.mask.down_links() {
        ops.push(LocalOp::Flush(node, port));
    }
    // Multicast-tree repair is incremental too: after a failure-only
    // reroute, a tree whose hops are all still alive keeps
    // delivering on its recorded (alive) ports, so only trees
    // crossing a dead element are rebuilt. A full reroute may have
    // restored capacity, which can re-attach previously cut-off
    // receivers — every tree is rebuilt then.
    for (gid, group) in control.groups.iter_mut().enumerate() {
        if !outcome.full && !group_crosses_fault(topo, &control.mask, group) {
            continue;
        }
        group.tree = build_tree(topo, GroupId(gid as u32), group.sender, &group.receivers);
        control.stats.trees_repaired += 1;
    }
}

/// Whether any hop recorded in a multicast tree's forwarding table
/// is unusable under the live fault mask (dead node, dead link, or
/// dead far end).
fn group_crosses_fault(topo: &Topology, mask: &FaultMask, group: &Group) -> bool {
    group.tree.hops().any(|(node, ports)| {
        mask.node_is_down(node) || ports.iter().any(|&p| !mask.port_is_up(topo, node, p))
    })
}

/// Union of per-receiver paths with choices keyed deterministically
/// by (group, switch): one copy per shared link, branching as low as
/// possible. Receivers unreachable under the current routes (a fault
/// cut them off) are skipped — during repair the tree covers the
/// reachable membership.
fn build_tree(topo: &Topology, gid: GroupId, sender: NodeId, receivers: &[NodeId]) -> Tree {
    let mut table: BTreeMap<NodeId, Vec<u16>> = BTreeMap::new();
    for &r in receivers {
        if topo.try_next_ports(sender, r).is_empty() {
            continue;
        }
        let mut at = sender;
        while at != r {
            let choices = topo.next_ports(at, r);
            let pick = choices[(Pcg32::new((u64::from(gid.0) << 32) ^ u64::from(at.0))
                .below(choices.len() as u64)) as usize];
            let entry = table.entry(at).or_default();
            if !entry.contains(&pick) {
                entry.push(pick);
            }
            at = topo.port(at, pick).peer;
        }
    }
    let mut tree = Tree::default();
    for (node, ports) in table {
        let start = tree.ports.len() as u16;
        tree.ports.extend(ports);
        tree.hops.push((node, start, tree.ports.len() as u16));
    }
    tree
}

/// Dispatch one node event against its cell. Mutates exactly that cell
/// (plus the lane scratch); reads only the shared [`Env`]. Every event
/// it emits is authored by this cell (its rank and counter), so the
/// emission is identical on whichever shard worker runs it.
pub(crate) fn dispatch_node<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    at: SimTime,
    rank: u32,
    seq: u64,
    kind: NodeEvent<P>,
) {
    match kind {
        NodeEvent::Arrive {
            from,
            port,
            pkt: mut wire,
        } => {
            debug_assert_eq!(env.topo.port(from, port).peer, cell.node);
            let pkt = wire.take().expect("a box on the wire holds its packet");
            if lane.boxes.len() < LANE_BOXES_MAX {
                lane.boxes.push(wire);
            }
            // The packet was on the wire; if the link died under it
            // or the far end is dead, it never really arrives.
            if env.control.mask.link_is_down(from, port) || env.control.mask.node_is_down(cell.node)
            {
                lane.stats.lost_to_fault += 1;
                return;
            }
            match env.topo.kind(cell.node) {
                NodeKind::Host => deliver_to_agent(env, cell, lane, (at, rank, seq), pkt),
                NodeKind::Switch => forward(env, cell, lane, at, rank, seq, pkt),
            }
        }
        NodeEvent::Dequeue(node, port) => {
            debug_assert_eq!(node, cell.node);
            debug_assert_eq!((at, seq), {
                let tx = &cell.tx[port as usize];
                (tx.free_at, tx.release_seq)
            });
            cell.tx[port as usize].armed = false;
            transmit_next(env, cell, lane, at, port);
        }
        NodeEvent::Timer(node, token) => {
            debug_assert_eq!(node, cell.node);
            let mut ctx = Ctx::new(at, node);
            let agent = cell
                .agent
                .as_mut()
                .expect("timer for a host without an agent");
            agent.on_timer(token, &mut ctx);
            apply_ctx(env, cell, lane, (at, rank, seq), ctx);
        }
    }
}

fn deliver_to_agent<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    now: EvKey,
    pkt: Packet<Stamped<P>>,
) {
    // A host receives packets addressed to it or to a group whose
    // tree terminates here; anything else is a routing bug.
    if let Dest::Host(h) = pkt.dst {
        assert_eq!(h, cell.node, "unicast packet delivered to wrong host");
    }
    lane.stats.delivered += 1;
    let mut ctx = Ctx::new(now.0, cell.node);
    let agent = cell
        .agent
        .as_mut()
        .expect("packet delivered to a host without an agent");
    agent.on_packet(unwrap_packet(pkt), &mut ctx);
    apply_ctx(env, cell, lane, now, ctx);
}

fn apply_ctx<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    now: EvKey,
    ctx: Ctx<P>,
) {
    let node = ctx.node;
    debug_assert_eq!(node, cell.node);
    for (t, token) in ctx.timers {
        assert!(
            t >= now.0,
            "timer at {} is in the simulator's past (now {})",
            t,
            now.0
        );
        let seq = cell.next_seq();
        lane.out.push(Ev {
            at: t,
            rank: node.0 + 1,
            seq,
            kind: NodeEvent::Timer(node, token),
        });
    }
    for pkt in ctx.sends {
        // Host NIC: hosts have exactly one port (index 0). The layer
        // stamp stays unset until the first switch assigns it.
        enqueue_and_kick(env, cell, lane, now, 0, wrap_packet(pkt));
    }
}

/// Whether `layer` has at least one advertised port at `node`
/// towards `dst` that is locally usable (link and far end up under
/// the live mask — switch-local knowledge, no control plane
/// required).
fn layer_live(env: &Env<'_>, layer: usize, node: NodeId, dst_index: usize) -> bool {
    env.topo
        .try_next_ports_at(layer, node, dst_index)
        .iter()
        .any(|&p| env.control.mask.port_is_up(env.topo, node, p))
}

/// Whether `layer` still offers a fully live path from `node` to the
/// destination: a walk over the layer's advertised next-hop DAG that
/// follows only ports usable under the live fault mask. This is the
/// source-side view a flow's first switch uses to steer the whole
/// flow off a layer whose trouble sits several hops downstream — a
/// pure function of (tables, mask), so the verdict is identical no
/// matter which shard computes it or when inside the stale window.
/// The result is memoized per (switch, flow, dst) and the memos are
/// cleared whenever the mask changes, so the walk runs once per flow
/// per fault era, not per packet.
fn layer_path_live(
    env: &Env<'_>,
    layer: usize,
    node: NodeId,
    dst: NodeId,
    dst_index: usize,
) -> bool {
    let mut stack = vec![node];
    let mut seen: Vec<NodeId> = Vec::new();
    while let Some(at) = stack.pop() {
        for &p in env.topo.try_next_ports_at(layer, at, dst_index) {
            if !env.control.mask.port_is_up(env.topo, at, p) {
                continue;
            }
            let peer = env.topo.port(at, p).peer;
            if peer == dst {
                return true;
            }
            if !seen.contains(&peer) {
                seen.push(peer);
                stack.push(peer);
            }
        }
    }
    false
}

fn forward<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    at: SimTime,
    rank: u32,
    seq: u64,
    mut pkt: Packet<Stamped<P>>,
) {
    let node = cell.node;
    match pkt.dst {
        Dest::Host(dst) => {
            // The layer machinery (stamp, memo lookup, re-assignment)
            // only exists under multi-layer policies; the single-layer
            // default skips it entirely — forwarding's hot path stays
            // exactly the pre-layering code.
            // One host-index resolution per packet; every route
            // lookup below is then a direct arena slice.
            let dst_index = env.topo.host_index(dst);
            let n_layers = env.topo.layer_count();
            let mut layer = 0;
            if n_layers > 1 {
                let LayerAssign::FlowHash = env.config.layer_assign;
                let stamp = pkt.payload.layer;
                if stamp == LAYER_UNSTAMPED {
                    // First switch: assign the flow's layer. Healthy
                    // mask — pure hash, no memo traffic. Under a
                    // fault era, steer the whole flow off a layer
                    // whose path to the destination is cut anywhere
                    // downstream (the source-side re-assignment the
                    // per-era memo makes cheap: one DAG walk per
                    // (flow, dst) per era, memoized until the mask
                    // next changes).
                    layer = if env.control.mask.is_empty() {
                        layer_choice(pkt.flow, n_layers)
                    } else if let Some(memoed) = cell.memo.get(pkt.flow.0, dst.0) {
                        memoed as usize
                    } else {
                        let hashed = layer_choice(pkt.flow, n_layers);
                        let mut pick = hashed;
                        if !layer_path_live(env, hashed, node, dst, dst_index) {
                            if let Some(alt) = (1..n_layers)
                                .map(|k| (hashed + k) % n_layers)
                                .find(|&l| layer_path_live(env, l, node, dst, dst_index))
                            {
                                pick = alt;
                                lane.stats.layer_reassignments += 1;
                                if env.tele_on {
                                    lane.notes.push((
                                        at,
                                        rank,
                                        seq,
                                        FabricEvent::LayerReassign {
                                            flow: pkt.flow.0,
                                            dst: dst.0,
                                            from: hashed as u8,
                                            to: alt as u8,
                                        },
                                    ));
                                }
                            }
                        }
                        cell.memo.insert(pkt.flow.0, dst.0, pick as u8);
                        pick
                    };
                } else {
                    // Interior hop: obey the stamp unless the stamped
                    // layer is dead at this hop (ECMP steered the
                    // packet into a cut branch, or the fault struck
                    // after the stamp) — then move to a locally live
                    // layer. At most one move per (switch, flow,
                    // destination) per fault era — a memoed move is
                    // never overwritten, or two half-dead layers
                    // could ping-pong a packet between neighbouring
                    // switches for the whole stale window.
                    let assigned = stamp as usize;
                    layer = assigned;
                    if !layer_live(env, assigned, node, dst_index) {
                        if let Some(memoed) = cell.memo.get(pkt.flow.0, dst.0) {
                            if memoed as usize != assigned {
                                layer = memoed as usize;
                            }
                        } else if let Some(alt) = (1..n_layers)
                            .map(|k| (assigned + k) % n_layers)
                            .find(|&l| layer_live(env, l, node, dst_index))
                        {
                            layer = alt;
                            lane.stats.layer_reassignments += 1;
                            cell.memo.insert(pkt.flow.0, dst.0, alt as u8);
                            if env.tele_on {
                                lane.notes.push((
                                    at,
                                    rank,
                                    seq,
                                    FabricEvent::LayerReassign {
                                        flow: pkt.flow.0,
                                        dst: dst.0,
                                        from: assigned as u8,
                                        to: alt as u8,
                                    },
                                ));
                            }
                        }
                    }
                }
                // Stamp (or re-stamp after a move): downstream hops
                // follow this packet's layer without re-hashing.
                pkt.payload.layer = layer as u8;
            }
            let choices = env.topo.try_next_ports_at(layer, node, dst_index);
            if choices.is_empty() {
                // The destination is unreachable under the current
                // fault mask; outside faults this is a config bug.
                assert!(
                    !env.control.mask.is_empty() || env.control.stats.reroutes > 0,
                    "no route from switch {} to host {} (routes computed?)",
                    node.0,
                    dst.0
                );
                lane.stats.lost_to_fault += 1;
                return;
            }
            lane.stats.layer_forwarded[layer] += 1;
            let port = match env.config.route {
                RouteMode::EcmpFlow => choices[ecmp_choice(pkt.flow, node, choices.len())],
                RouteMode::Spray => choices[cell.rng.below(choices.len() as u64) as usize],
            };
            match enqueue_and_kick(env, cell, lane, (at, rank, seq), port, pkt) {
                Enqueued::Trimmed => lane.stats.layer_trimmed[layer] += 1,
                Enqueued::Dropped => lane.stats.layer_dropped[layer] += 1,
                Enqueued::Queued => {}
            }
        }
        Dest::Group(gid) => {
            let group = env
                .control
                .groups
                .get(gid.0 as usize)
                .expect("unregistered multicast group");
            let Some(ports) = group.tree.ports_at(node) else {
                // Tree does not branch here. After a repair, packets
                // already inside the old tree can be stranded at
                // switches the new tree no longer visits — those are
                // fault losses. Otherwise it is a forwarding bug.
                assert!(
                    env.control.stats.reroutes > 0,
                    "group packet at switch {} outside its tree",
                    node.0
                );
                lane.stats.lost_to_fault += 1;
                return;
            };
            // One copy per branch; the last branch takes the packet
            // itself.
            let (&last, rest) = ports.split_last().expect("a tree node has an out-port");
            let now = (at, rank, seq);
            for &port in rest {
                enqueue_and_kick(env, cell, lane, now, port, pkt.clone());
            }
            enqueue_and_kick(env, cell, lane, now, last, pkt);
        }
    }
}

/// Enqueue on a port while the event keyed `now` runs: transmit at
/// once if the wire is free, else make sure the port's release is in
/// the event queue to pick the packet up. Returns the port queue's verdict so
/// callers that know the packet's routing layer can attribute
/// trims/drops per layer.
fn enqueue_and_kick<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    now: EvKey,
    port: u16,
    pkt: Packet<Stamped<P>>,
) -> Enqueued {
    let outcome = cell.queues[port as usize].enqueue(pkt);
    match outcome {
        Enqueued::Dropped => {
            lane.stats.dropped += 1;
            return outcome;
        }
        Enqueued::Trimmed => lane.stats.trimmed += 1,
        Enqueued::Queued => {}
    }
    if cell.port_busy(port, now) {
        lane.out.extend(cell.arm_release(port));
    } else {
        transmit_next(env, cell, lane, now.0, port);
    }
    outcome
}

/// Put `port`'s next queued packet on the wire at `at`. Only called
/// with the wire free: by the port's release event, or by an enqueue
/// that found the release already past.
fn transmit_next<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    at: SimTime,
    port: u16,
) {
    let node = cell.node;
    let rate = env
        .control
        .rate_overrides
        .get(&(node.0, port))
        .copied()
        .unwrap_or_else(|| env.topo.port(node, port).rate_bps);
    let faulted = env.control.mask.node_is_down(node) || env.control.mask.link_is_down(node, port);
    if rate == 0 || faulted {
        // Link down (silent rate-0 blackhole or detected fault):
        // leave the port idle; queued packets wait for a possible
        // repair (and overflow per queue discipline).
        return;
    }
    let Some(pkt) = cell.queues[port as usize].dequeue() else {
        return;
    };
    let link = *env.topo.port(node, port);
    let ser = serialization_ns(pkt.size, rate);
    let seq = cell.next_seq();
    let mut wire = lane.boxes.pop().unwrap_or_default();
    *wire = Some(pkt);
    lane.out.push(Ev {
        at: at + ser + link.prop_ns,
        rank: node.0 + 1,
        seq,
        kind: NodeEvent::Arrive {
            from: node,
            port,
            pkt: wire,
        },
    });
    // The release's `seq` is drawn here whether or not the event is
    // pushed, so every event this node authors keeps the key an eager
    // release would have given it.
    debug_assert!(!cell.tx[port as usize].armed && ser > 0);
    cell.tx[port as usize].free_at = at + ser;
    cell.tx[port as usize].release_seq = cell.next_seq();
    if !cell.queues[port as usize].is_empty() {
        lane.out.extend(cell.arm_release(port));
    }
}

/// The equal-cost choice per-flow ECMP makes at `node`: a deterministic
/// hash of (flow, switch), so consecutive switches pick independently
/// but per-flow-stably. Exposed so experiment code can predict a flow's
/// pinned path (e.g. to aim a fault event at a switch the baseline
/// traffic actually crosses).
pub fn ecmp_choice(flow: crate::packet::FlowId, node: NodeId, n_choices: usize) -> usize {
    let h = crate::rng::Pcg32::new(flow.0 ^ (u64::from(node.0) << 40)).next_u32();
    h as usize % n_choices
}

/// The routing layer [`LayerAssign::FlowHash`] assigns a flow to: a
/// deterministic hash of the flow id alone, so every switch agrees on
/// the flow's layer without per-packet state — equivalent to the source
/// stamping the layer in the packet header, as FatPaths does. Exposed
/// so experiment code can predict a flow's layer.
pub fn layer_choice(flow: crate::packet::FlowId, n_layers: usize) -> usize {
    if n_layers <= 1 {
        return 0;
    }
    let h = crate::rng::Pcg32::new(flow.0 ^ 0x7A9E_12C4_55AA_01FE).next_u32();
    h as usize % n_layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    #[derive(Debug, Clone, PartialEq)]
    enum P {
        Data(u32),
        Hdr(u32),
        Pull,
    }

    impl SimPayload for P {
        fn is_control(&self) -> bool {
            !matches!(self, P::Data(_))
        }
        fn trim(&self) -> Option<Self> {
            match self {
                P::Data(i) => Some(P::Hdr(*i)),
                other => Some(other.clone()),
            }
        }
    }

    /// Test agent: records receptions; sends a preloaded batch on timer 0.
    struct Echo {
        to_send: Vec<Packet<P>>,
        received: Vec<(SimTime, P)>,
    }

    impl Agent<P> for Echo {
        fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<P>) {
            self.received.push((ctx.now, pkt.payload));
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<P>) {
            for pkt in self.to_send.drain(..) {
                ctx.send(pkt);
            }
        }
    }

    fn data_pkt(src: NodeId, dst: NodeId, i: u32) -> Packet<P> {
        Packet {
            src,
            dst: Dest::Host(dst),
            flow: FlowId(7),
            size: 1500,
            payload: P::Data(i),
        }
    }

    fn two_host_sim(config: SimConfig) -> (Simulator<P, Echo>, NodeId, NodeId) {
        // host A — switch — host B
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        let mut sim = Simulator::new(t, config);
        sim.set_agent(
            a,
            Echo {
                to_send: vec![],
                received: vec![],
            },
        );
        sim.set_agent(
            b,
            Echo {
                to_send: vec![],
                received: vec![],
            },
        );
        (sim, a, b)
    }

    /// Two senders, one receiver: the switch's receiver port is a 2:1
    /// bottleneck, so simultaneous bursts congest it.
    fn incast_sim(config: SimConfig) -> (Simulator<P, Echo>, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let c = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(c, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        let mut sim = Simulator::new(t, config);
        for h in [a, b, c] {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        (sim, a, c, b)
    }

    #[test]
    fn single_packet_latency_exact() {
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
        sim.agent_mut(a).to_send.push(data_pkt(a, b, 0));
        sim.schedule_timer(a, SimTime::ZERO, 0);
        sim.run_to_completion();
        let rec = &sim.agent(b).received;
        assert_eq!(rec.len(), 1);
        // Two store-and-forward hops: 2 × (12µs ser + 10µs prop).
        assert_eq!(rec[0].0, SimTime::from_nanos(2 * (12_000 + 10_000)));
    }

    #[test]
    fn fifo_pipelining() {
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
        for i in 0..3 {
            sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        sim.run_to_completion();
        let rec = &sim.agent(b).received;
        assert_eq!(rec.len(), 3);
        // In order, spaced by one serialization delay.
        assert_eq!(rec[0].1, P::Data(0));
        assert_eq!(rec[1].0 - rec[0].0, 12_000);
        assert_eq!(rec[2].0 - rec[1].0, 12_000);
    }

    #[test]
    fn trimming_under_burst() {
        // Two hosts blast 20 packets each into a shared receiver port
        // (2:1 overload): the 8-packet NDP data queue must overflow and
        // the overflow must be trimmed, never dropped.
        let (mut sim, a, c, b) = incast_sim(SimConfig::ndp(1));
        for i in 0..20 {
            sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
            sim.agent_mut(c).to_send.push(data_pkt(c, b, 100 + i));
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        sim.schedule_timer(c, SimTime::ZERO, 0);
        sim.run_to_completion();
        let rec = &sim.agent(b).received;
        assert_eq!(rec.len(), 40, "every packet arrives, full or trimmed");
        let full = rec.iter().filter(|(_, p)| matches!(p, P::Data(_))).count();
        let trimmed = rec.iter().filter(|(_, p)| matches!(p, P::Hdr(_))).count();
        assert_eq!(full + trimmed, 40);
        assert!(
            trimmed > 0,
            "2:1 overload must overflow the 8-packet data queue"
        );
        assert_eq!(sim.stats().trimmed as usize, trimmed);
        assert_eq!(sim.stats().dropped, 0);
        assert_eq!(sim.switch_queue_totals().trimmed as usize, trimmed);
    }

    #[test]
    fn droptail_drops_under_burst() {
        let mut cfg = SimConfig::classic(1);
        cfg.switch_queue = QueueConfig::DropTail { cap_pkts: 4 };
        let (mut sim, a, c, b) = incast_sim(cfg);
        for i in 0..20 {
            sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
            sim.agent_mut(c).to_send.push(data_pkt(c, b, 100 + i));
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        sim.schedule_timer(c, SimTime::ZERO, 0);
        sim.run_to_completion();
        let rec = &sim.agent(b).received;
        assert!(rec.len() < 40, "drop-tail must lose packets");
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn control_overtakes_data() {
        // Host C backlogs the receiver port with data; a pull from host A
        // sent later must overtake queued data thanks to the priority
        // header queue.
        let (mut sim, a, c, b) = incast_sim(SimConfig::ndp(1));
        for i in 0..10 {
            sim.agent_mut(c).to_send.push(data_pkt(c, b, i));
        }
        sim.agent_mut(a).to_send.push(Packet {
            src: a,
            dst: Dest::Host(b),
            flow: FlowId(9),
            size: 64,
            payload: P::Pull,
        });
        sim.schedule_timer(c, SimTime::ZERO, 0);
        // Give C a head start so the switch queue is backlogged when the
        // pull arrives.
        sim.schedule_timer(a, SimTime::from_micros(40), 0);
        sim.run_to_completion();
        let rec = &sim.agent(b).received;
        let pull_pos = rec.iter().position(|(_, p)| *p == P::Pull).unwrap();
        assert!(
            pull_pos < rec.len() - 1,
            "pull should overtake queued data at the switch"
        );
    }

    #[test]
    fn multicast_delivers_to_all() {
        // One sender, three receivers on a k=4 fat-tree.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::ndp(3));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        let (s, r1, r2, r3) = (hosts[0], hosts[3], hosts[7], hosts[12]);
        let gid = sim.register_group(s, &[r1, r2, r3]);
        sim.agent_mut(s).to_send.push(Packet {
            src: s,
            dst: Dest::Group(gid),
            flow: FlowId(1),
            size: 1500,
            payload: P::Data(0),
        });
        sim.schedule_timer(s, SimTime::ZERO, 0);
        sim.run_to_completion();
        for &r in &[r1, r2, r3] {
            assert_eq!(sim.agent(r).received.len(), 1, "receiver {} missed", r.0);
        }
        // Non-members received nothing.
        assert_eq!(sim.agent(hosts[1]).received.len(), 0);
    }

    #[test]
    fn multicast_tree_shares_sender_uplink() {
        // The whole point of multicast in Fig 1a: one copy leaves the
        // sender regardless of replica count.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::ndp(3));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        let s = hosts[0];
        let receivers = [hosts[5], hosts[9], hosts[13]];
        let gid = sim.register_group(s, &receivers);
        for i in 0..50 {
            sim.agent_mut(s).to_send.push(Packet {
                src: s,
                dst: Dest::Group(gid),
                flow: FlowId(1),
                size: 1500,
                payload: P::Data(i),
            });
        }
        sim.schedule_timer(s, SimTime::ZERO, 0);
        sim.run_to_completion();
        // Sender's NIC transmitted each packet exactly once.
        let nic = sim.queue_stats(s, 0);
        assert_eq!(nic.tx_bytes, 50 * 1500);
        for &r in &receivers {
            assert_eq!(sim.agent(r).received.len(), 50);
        }
    }

    #[test]
    fn spray_uses_multiple_paths() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]); // inter-pod: 2 uplinks
        let edge = t.edge_switch(src);
        let up_ports: Vec<u16> = t.next_ports(edge, dst).to_vec();
        assert_eq!(up_ports.len(), 2);
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::ndp(5));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..100 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        sim.run_to_completion();
        let tx0 = sim.queue_stats(edge, up_ports[0]).tx_bytes;
        let tx1 = sim.queue_stats(edge, up_ports[1]).tx_bytes;
        assert!(
            tx0 > 0 && tx1 > 0,
            "spraying must use both uplinks ({tx0}, {tx1})"
        );
    }

    #[test]
    fn ecmp_pins_one_path() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let edge = t.edge_switch(src);
        let up_ports: Vec<u16> = t.next_ports(edge, dst).to_vec();
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::classic(5));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..100 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        sim.run_to_completion();
        let tx0 = sim.queue_stats(edge, up_ports[0]).tx_bytes;
        let tx1 = sim.queue_stats(edge, up_ports[1]).tx_bytes;
        assert!(
            (tx0 == 0) != (tx1 == 0),
            "per-flow ECMP must pin exactly one uplink ({tx0}, {tx1})"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| -> Vec<(SimTime, P)> {
            let (mut sim, a, b) = two_host_sim(SimConfig::ndp(seed));
            for i in 0..30 {
                sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
            }
            sim.schedule_timer(a, SimTime::ZERO, 0);
            sim.run_to_completion();
            let slot = sim.cell_of[b.0 as usize] as usize;
            sim.cells[slot].agent.take().unwrap().received
        };
        assert_eq!(run(42), run(42), "same seed ⇒ identical trace");
    }

    /// A k=4 fat-tree with Echo agents everywhere, plus the (src, dst)
    /// inter-pod pair and one aggregation switch in src's pod — the
    /// natural victim: spraying uses both aggs, so killing one catches
    /// in-flight packets while the survivor keeps the pair connected.
    fn fat_tree_sim(seed: u64) -> (Simulator<P, Echo>, NodeId, NodeId, NodeId) {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let edge = t.edge_switch(src);
        let agg = t
            .node_ports(edge)
            .iter()
            .map(|p| p.peer)
            .find(|&n| t.kind(n) == NodeKind::Switch)
            .expect("edge switch has aggregation uplinks");
        let mut sim = Simulator::new(t, SimConfig::ndp(seed));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        (sim, src, dst, agg)
    }

    #[test]
    fn switch_failure_reroutes_and_drops_in_flight() {
        let (mut sim, src, dst, agg) = fat_tree_sim(0);
        for i in 0..40 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        // The NIC drains one packet per 12 us, so the stream spans
        // ~480 us; kill the agg mid-stream and restore near the end.
        let plan = FaultPlan::new()
            .switch_down(SimTime::from_micros(100), agg)
            .switch_up(SimTime::from_micros(400), agg);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert_eq!(stats.reroutes, 2, "down + up each recompute routes");
        assert!(
            stats.lost_to_fault > 0,
            "mid-stream agg death must catch packets in flight or queued"
        );
        let got = sim.agent(dst).received.len();
        assert_eq!(
            got as u64 + stats.lost_to_fault,
            40,
            "every packet either arrives or is accounted as a fault loss"
        );
        assert!(
            got >= 30,
            "the surviving agg must carry the stream (got {got})"
        );
        assert_eq!(stats.dropped, 0, "no congestion drops at this load");
    }

    #[test]
    fn link_failure_loses_queued_packets_and_recovers() {
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(4));
        for i in 0..20 {
            sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        // The a—switch link dies with most of the burst still queued in
        // a's NIC, then comes back; the flushed packets are gone for
        // good but traffic sent after the repair flows again.
        let plan = FaultPlan::new()
            .link_down(SimTime::from_micros(30), a, 0)
            .link_up(SimTime::from_micros(200), a, 0);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert!(stats.lost_to_fault >= 15, "queued burst flushed");
        // After repair the link works: send another packet.
        sim.agent_mut(a).to_send.push(data_pkt(a, b, 99));
        sim.schedule_timer(a, SimTime::from_micros(500), 0);
        sim.run_to_completion();
        assert!(sim.agent(b).received.iter().any(|(_, p)| *p == P::Data(99)));
    }

    #[test]
    fn convergence_window_strands_nothing() {
        // With a non-zero convergence delay, the stale routes keep
        // spraying onto the dead link until the deferred reroute fires;
        // those packets must be flushed and accounted as fault losses,
        // never silently stranded in a parked queue.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let edge = t.edge_switch(src);
        let up = t
            .node_ports(edge)
            .iter()
            .position(|p| t.kind(p.peer) == NodeKind::Switch)
            .expect("edge has uplinks") as u16;
        let mut cfg = SimConfig::ndp(13);
        cfg.reroute_delay_ns = 200_000; // 200 us of stale routing
        let mut sim = Simulator::new(t, cfg);
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..40 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        let plan = FaultPlan::new().link_down(SimTime::from_micros(100), edge, up);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        let got = sim.agent(dst).received.len();
        assert!(stats.lost_to_fault > 0, "the dead uplink must cost packets");
        assert_eq!(
            got as u64 + stats.lost_to_fault,
            40,
            "every packet arrives or is accounted as a fault loss"
        );
        assert!(got >= 20, "the surviving uplink carries the rest");
    }

    #[test]
    fn access_link_failure_stays_stale_until_the_reroute() {
        // A host's `cut` bit follows the mask the routes were computed
        // with, never the live mask: while the control plane converges,
        // every switch keeps forwarding towards the dead access link
        // (all five switch hops, the ToR's last hop included) and the
        // packets die at the ToR; only the reroute makes the first
        // switch refuse them.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let mut cfg = SimConfig::ndp(13);
        cfg.reroute_delay_ns = 200_000;
        let mut sim = Simulator::new(t, cfg);
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..10 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        // The burst is strung out over 120 us of NIC serialization and
        // the first two packets land at 132 and 144 us: the failure at 150 us splits
        // it, the reroute at 350 us finds the rest parked at the ToR.
        let plan = FaultPlan::new().link_down(SimTime::from_micros(150), dst, 0);
        sim.schedule_faults(&plan);
        sim.run_until(SimTime::from_micros(349));
        let stale = sim.stats();
        assert_eq!(stale.reroutes, 0, "still inside the convergence window");
        assert_eq!(
            stale.layer_forwarded[0], 50,
            "all 10 packets took all 5 switch hops towards the dead link"
        );
        sim.run_to_completion();
        let converged = sim.stats();
        let got = sim.agent(dst).received.len() as u64;
        assert_eq!(converged.reroutes, 1);
        assert_eq!(converged.route_dests_rebuilt, 0, "a bit flip, no column");
        assert_eq!((got, converged.lost_to_fault), (2, 8));
        // After the reroute the first switch has no route: nothing is
        // forwarded, every packet is a fault loss on the spot.
        for i in 10..20 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::from_micros(1000), 0);
        sim.run_to_completion();
        let refused = sim.stats();
        assert_eq!(
            refused.layer_forwarded[0], 50,
            "refused at the first switch"
        );
        assert_eq!(refused.lost_to_fault, 18);
        assert_eq!(sim.agent(dst).received.len() as u64, got);
    }

    #[test]
    fn multicast_tree_repair_after_core_failure() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let cores = t.core_switches();
        let hosts = t.hosts().to_vec();
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::ndp(8));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        let s = hosts[0];
        let receivers = [hosts[5], hosts[9], hosts[13]];
        let gid = sim.register_group(s, &receivers);
        // Kill the lowest-id core the tree actually crosses (the tests
        // module can see the private table); the repair must re-tree
        // around it.
        let victim = sim.control.groups[gid.0 as usize]
            .tree
            .hops()
            .map(|(n, _)| n)
            .find(|n| cores.contains(n))
            .expect("inter-pod multicast tree crosses a core");
        let plan = FaultPlan::new().switch_down(SimTime::from_micros(100), victim);
        sim.schedule_faults(&plan);
        // Stream packets across the failure instant.
        for i in 0..100 {
            sim.agent_mut(s).to_send.push(Packet {
                src: s,
                dst: Dest::Group(gid),
                flow: FlowId(1),
                size: 1500,
                payload: P::Data(i),
            });
        }
        sim.schedule_timer(s, SimTime::ZERO, 0);
        sim.run_to_completion();
        let stats = sim.stats();
        assert_eq!(stats.trees_repaired, 1, "the one group was rebuilt");
        for &r in &receivers {
            // Packets caught inside the old tree at repair time can miss
            // a receiver without a per-receiver loss record (the new
            // tree re-covers them only partially), so the bound is
            // deliberately loose: the repair must restore delivery.
            let got = sim.agent(r).received.len();
            assert!(got >= 90, "repair must restore delivery (got {got})");
            assert!(got <= 100, "no duplicate deliveries (got {got})");
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let (mut sim, src, dst, agg) = fat_tree_sim(11);
            for i in 0..60 {
                sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
            }
            sim.schedule_timer(src, SimTime::ZERO, 0);
            let plan = FaultPlan::new()
                .switch_down(SimTime::from_micros(80), agg)
                .switch_up(SimTime::from_micros(500), agg);
            sim.schedule_faults(&plan);
            sim.run_to_completion();
            let stats = sim.stats();
            let slot = sim.cell_of[dst.0 as usize] as usize;
            let trace = sim.cells[slot].agent.take().unwrap().received;
            (stats, trace)
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2, "same seed + plan ⇒ identical stats");
        assert_eq!(t1, t2, "same seed + plan ⇒ identical delivery trace");
    }

    #[test]
    fn switch_down_on_host_kills_and_revives_the_host() {
        // Host victims are a behaviour, not a panic: the host's access
        // link goes dark (arrivals lost, queued traffic flushed) and a
        // later SwitchUp brings it back.
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
        for i in 0..20 {
            sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        // Kill the *receiver* host mid-burst, revive near the end.
        let plan = FaultPlan::new()
            .host_down(SimTime::from_micros(100), b)
            .host_up(SimTime::from_micros(400), b);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert_eq!(stats.reroutes, 2, "down + up each reroute");
        assert!(
            stats.lost_to_fault > 0,
            "mid-burst host death must cost packets"
        );
        let got = sim.agent(b).received.len();
        assert!(got < 20, "the dead window's packets are gone");
        // After the repair the host receives again.
        sim.agent_mut(a).to_send.push(data_pkt(a, b, 99));
        sim.schedule_timer(a, SimTime::from_micros(500), 0);
        sim.run_to_completion();
        assert!(sim.agent(b).received.iter().any(|(_, p)| *p == P::Data(99)));
    }

    #[test]
    fn switch_and_host_victims_account_identically() {
        // The same FaultAction handles both victim kinds: killing the
        // sender host parks its NIC (packets flushed once, then queued
        // unsent), killing the switch flushes the fabric — both surface
        // as lost_to_fault, never as silent strands.
        let run = |kill_host: bool| {
            let (mut sim, a, b) = two_host_sim(SimConfig::ndp(2));
            for i in 0..10 {
                sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
            }
            sim.schedule_timer(a, SimTime::ZERO, 0);
            let victim = if kill_host { a } else { NodeId(1) };
            let plan = FaultPlan::new().switch_down(SimTime::from_micros(30), victim);
            sim.schedule_faults(&plan);
            sim.run_to_completion();
            (sim.stats(), sim.agent(b).received.len())
        };
        let (host_stats, host_got) = run(true);
        let (switch_stats, switch_got) = run(false);
        assert!(host_stats.lost_to_fault > 0 && switch_stats.lost_to_fault > 0);
        assert!(host_got < 10, "host death cut the stream");
        assert!(switch_got < 10, "switch death cut the stream");
        assert_eq!(host_stats.reroutes, 1);
        assert_eq!(switch_stats.reroutes, 1);
    }

    #[test]
    fn flap_inside_convergence_window_coalesces_to_noop() {
        // A link that goes down and comes back before the deferred
        // reroute fires must cost zero full recomputes: the pair cancels
        // out of the pending delta and the reroute is a no-op repair.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let edge = t.edge_switch(src);
        let up = t
            .node_ports(edge)
            .iter()
            .position(|p| t.kind(p.peer) == NodeKind::Switch)
            .expect("edge has uplinks") as u16;
        let mut cfg = SimConfig::ndp(21);
        cfg.reroute_delay_ns = 200_000;
        let mut sim = Simulator::new(t, cfg);
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..40 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        // Down at 100 µs, up at 150 µs — inside the 200 µs window.
        let plan = FaultPlan::new()
            .link_down(SimTime::from_micros(100), edge, up)
            .link_up(SimTime::from_micros(150), edge, up);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert_eq!(stats.flaps_coalesced, 1, "the pair coalesced");
        assert_eq!(stats.reroutes, 1, "one deferred reroute fired");
        assert_eq!(
            stats.reroutes_incremental, 1,
            "the no-op delta must never fall back to a full recompute"
        );
        assert_eq!(stats.route_dests_rebuilt, 0, "nothing to rebuild");
        let got = sim.agent(dst).received.len();
        assert_eq!(
            got as u64 + stats.lost_to_fault,
            40,
            "flap losses stay accounted"
        );
        assert!(got > 0, "traffic resumes over the restored link");
    }

    #[test]
    fn restoration_after_convergence_repairs_incrementally() {
        // Down and up in *separate* convergence windows: the up-reroute
        // carries a restoration delta, which must be healed by restore
        // surgery, not a full recompute.
        let (mut sim, src, dst, agg) = fat_tree_sim(23);
        for i in 0..60 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        let plan = FaultPlan::new()
            .switch_down(SimTime::from_micros(80), agg)
            .switch_up(SimTime::from_micros(500), agg);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert_eq!(stats.reroutes, 2);
        assert_eq!(stats.flaps_coalesced, 0, "windows were separate");
        assert_eq!(
            stats.restores_incremental, 1,
            "the restoration reroute must use restore surgery"
        );
        assert_eq!(stats.reroutes_incremental, 2, "both reroutes incremental");
    }

    #[test]
    fn layered_policy_spreads_flows_and_counts_per_layer() {
        // Many distinct flows on a 4-layer fat-tree: the flow hash must
        // land traffic on several layers, and the per-layer utilisation
        // counters must account every switch-forwarded unicast packet.
        let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        t.set_policy(crate::topology::RoutingPolicy::layered(4, 5));
        t.compute_routes();
        let hosts = t.hosts().to_vec();
        let mut sim: Simulator<P, Echo> = Simulator::new(t, SimConfig::ndp(5));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        let (src, dst) = (hosts[0], hosts[15]);
        for i in 0..64 {
            let mut pkt = data_pkt(src, dst, i);
            pkt.flow = FlowId(u64::from(i)); // one flow per packet
            sim.agent_mut(src).to_send.push(pkt);
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        sim.run_to_completion();
        assert_eq!(sim.agent(dst).received.len(), 64);
        let stats = sim.stats();
        assert_eq!(stats.layer_reassignments, 0, "healthy fabric: no moves");
        let used = stats.layer_forwarded.iter().filter(|&&c| c > 0).count();
        assert!(used >= 2, "64 flows must spread over >= 2 of 4 layers");
        assert_eq!(
            stats.layer_forwarded[4..].iter().sum::<u64>(),
            0,
            "slots past the layer count stay empty"
        );
    }

    #[test]
    fn dead_layer_reassigns_flows_mid_window() {
        // Diamond fabric a—sA—{s1|s2}—sB—b under a 2-layer policy. Find
        // a policy seed whose layer 1 advertises the s1 branch as sA's
        // only port towards b, and a flow hashed onto layer 1; killing
        // the sA—s1 link mid-stream with a long convergence window must
        // then re-assign the flow onto the live layer at sA instead of
        // blackholing it until the deferred reroute.
        let build = |seed: u64| -> (Topology, NodeId, NodeId, NodeId) {
            let mut t = Topology::new();
            let a = t.add_node(NodeKind::Host);
            let sa = t.add_node(NodeKind::Switch);
            let s1 = t.add_node(NodeKind::Switch);
            let s2 = t.add_node(NodeKind::Switch);
            let sb = t.add_node(NodeKind::Switch);
            let b = t.add_node(NodeKind::Host);
            t.connect(a, sa, 1_000_000_000, 10_000);
            t.connect(sa, s1, 1_000_000_000, 10_000); // sa port 1
            t.connect(sa, s2, 1_000_000_000, 10_000); // sa port 2
            t.connect(s1, sb, 1_000_000_000, 10_000);
            t.connect(s2, sb, 1_000_000_000, 10_000);
            t.connect(sb, b, 1_000_000_000, 10_000);
            t.set_policy(crate::topology::RoutingPolicy::layered(2, seed));
            t.compute_routes();
            (t, a, sa, b)
        };
        let seed = (0..64)
            .find(|&s| {
                let (t, _, sa, b) = build(s);
                t.try_next_ports_on(1, sa, b) == [1u16]
            })
            .expect("some seed prefers the s1 branch on layer 1");
        let (t, a, sa, b) = build(seed);
        let flow = (0..64)
            .map(FlowId)
            .find(|&f| layer_choice(f, 2) == 1)
            .expect("some flow hashes onto layer 1");
        let mut cfg = SimConfig::ndp(3);
        cfg.reroute_delay_ns = 500_000; // long stale-routing window
        let mut sim = Simulator::new(t, cfg);
        for h in [a, b] {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..30 {
            let mut pkt = data_pkt(a, b, i);
            pkt.flow = flow;
            sim.agent_mut(a).to_send.push(pkt);
        }
        sim.schedule_timer(a, SimTime::ZERO, 0);
        // The NIC drains one packet per 12 µs; kill the s1 branch at
        // 100 µs with most of the stream still to come.
        let plan = FaultPlan::new().link_down(SimTime::from_micros(100), sa, 1);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let stats = sim.stats();
        assert!(
            stats.layer_reassignments >= 1,
            "the dead layer must shed its flow"
        );
        // Without re-assignment the flow would blackhole at sA for the
        // whole 500 µs window (its layer advertises only the dead
        // port); with it, packets keep arriving mid-window over the
        // live layer. (The live layer still sprays across its own
        // port set — stale-window losses on the dead port remain, as
        // for any flow, so not every packet survives.)
        let rec = &sim.agent(b).received;
        let post_fault = rec
            .iter()
            .filter(|(at, _)| *at > SimTime::from_micros(100))
            .count();
        assert!(
            post_fault >= 5,
            "re-assigned flow must keep delivering mid-window (got {post_fault})"
        );
        assert_eq!(
            rec.len() as u64 + stats.lost_to_fault,
            30,
            "every packet arrives or is accounted as a fault loss"
        );
    }

    #[test]
    fn poisson_fault_process_is_deterministic_and_mixed() {
        use crate::fault::{FaultMix, FaultProcess};
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let proc = FaultProcess::poisson(1000.0, FaultMix::uniform(), Some(2_000_000)).seed(7);
        let a = proc.compile(&t, SimTime::from_micros(100), 24);
        let b = proc.compile(&t, SimTime::from_micros(100), 24);
        assert_eq!(a, b, "same seed ⇒ identical plan");
        let c = proc.seed(8).compile(&t, SimTime::from_micros(100), 24);
        assert_ne!(a, c, "different seed ⇒ different plan");
        // Every down has a scripted repair, times are non-decreasing
        // per element class, and the mix covers hosts.
        let downs = a
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    FaultAction::LinkDown { .. } | FaultAction::SwitchDown { .. }
                )
            })
            .count();
        let ups = a.events().len() - downs;
        assert_eq!(downs, 24, "one down per drawn event");
        assert_eq!(ups, downs, "every failure is repaired");
        let host_failures = a.host_failures(&t);
        assert!(
            !host_failures.is_empty(),
            "uniform mix over 24 events should draw a host"
        );
        assert!(host_failures.iter().all(|f| f.repaired_at.is_some()));
    }

    use crate::telemetry::{AnomalyKind, FabricEvent, Recorder, TelemetryConfig};

    /// The fat-tree fault scenario of `switch_failure_reroutes_and_
    /// drops_in_flight`, with a recorder installed: annotations carry
    /// the fault and reroute story, buckets tile the run exactly, and
    /// their deltas sum to the end-of-run aggregates.
    #[test]
    fn recorder_annotates_faults_and_buckets_sum_to_totals() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        let edge = t.edge_switch(src);
        let agg = t
            .node_ports(edge)
            .iter()
            .map(|p| p.peer)
            .find(|&n| t.kind(n) == NodeKind::Switch)
            .expect("edge switch has aggregation uplinks");
        let rec = Recorder::new(TelemetryConfig {
            window_ns: 50_000, // 50 µs windows over a ~500 µs run
            ring_capacity: 8,
        });
        let mut sim: Simulator<P, Echo, Option<Recorder>> =
            Simulator::with_telemetry(t, SimConfig::ndp(9), Some(rec));
        for &h in &hosts {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        for i in 0..40 {
            sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
        }
        sim.schedule_timer(src, SimTime::ZERO, 0);
        let plan = FaultPlan::new()
            .switch_down(SimTime::from_micros(100), agg)
            .switch_up(SimTime::from_micros(400), agg);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        sim.finish_telemetry();
        let stats = sim.stats();
        let rec = sim.telemetry_mut().take().expect("recorder installed");

        let ann = rec.annotations();
        assert!(ann
            .iter()
            .any(|a| a.event == FabricEvent::NodeDown { node: agg.0 }
                && a.at == SimTime::from_micros(100)));
        assert!(ann
            .iter()
            .any(|a| a.event == FabricEvent::NodeUp { node: agg.0 }));
        assert_eq!(
            ann.iter()
                .filter(|a| matches!(a.event, FabricEvent::Reroute { .. }))
                .count(),
            2,
            "down + up each recompute routes"
        );
        // No anomalies in a healthy incremental-repair run, hence no
        // flight-recorder dumps.
        assert!(rec.dumps().is_empty());

        let b = rec.buckets();
        assert!(!b.is_empty());
        for w in b.windows(2) {
            assert_eq!(w[0].end, w[1].start, "buckets tile the run");
        }
        assert_eq!(b[0].start, SimTime::ZERO);
        let delivered: u64 = b.iter().map(|x| x.delivered).sum();
        let lost: u64 = b.iter().map(|x| x.lost_to_fault).sum();
        assert_eq!(delivered, stats.delivered, "bucket deltas sum to totals");
        assert_eq!(lost, stats.lost_to_fault);
        // Switch ports carried the stream: buckets hold sparse per-port
        // samples with transmit activity.
        assert!(b
            .iter()
            .any(|x| x.ports.iter().any(|p| p.tx_bytes > 0 && p.enqueued > 0)));
    }

    /// Enabling the recorder must not perturb the run: same seed, same
    /// received payload sequence, same FabricStats — telemetry reads
    /// the simulation, never shapes it.
    #[test]
    fn recorder_on_is_byte_identical_to_off() {
        fn drive<T: crate::telemetry::TelemetrySink + Send + Sync>(
            mut sim: Simulator<P, Echo, T>,
        ) -> (Vec<(SimTime, P)>, FabricStats) {
            let hosts = sim.topology().hosts().to_vec();
            let (src, dst) = (hosts[0], hosts[15]);
            let agg = {
                let t = sim.topology();
                let edge = t.edge_switch(src);
                t.node_ports(edge)
                    .iter()
                    .map(|p| p.peer)
                    .find(|&n| t.kind(n) == NodeKind::Switch)
                    .expect("edge switch has aggregation uplinks")
            };
            for i in 0..40 {
                sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
            }
            sim.schedule_timer(src, SimTime::ZERO, 0);
            let plan = FaultPlan::new()
                .switch_down(SimTime::from_micros(100), agg)
                .switch_up(SimTime::from_micros(400), agg);
            sim.schedule_faults(&plan);
            sim.run_to_completion();
            let received = sim.agent(dst).received.clone();
            (received, sim.stats())
        }
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let mut off: Simulator<P, Echo, Option<Recorder>> =
            Simulator::with_telemetry(t.clone(), SimConfig::ndp(9), None);
        let mut on: Simulator<P, Echo, Option<Recorder>> = Simulator::with_telemetry(
            t.clone(),
            SimConfig::ndp(9),
            Some(Recorder::new(TelemetryConfig::default())),
        );
        let mut baseline: Simulator<P, Echo> = Simulator::new(t.clone(), SimConfig::ndp(9));
        for sim_hosts in [&mut off, &mut on] {
            for &h in t.hosts() {
                sim_hosts.set_agent(
                    h,
                    Echo {
                        to_send: vec![],
                        received: vec![],
                    },
                );
            }
        }
        for &h in t.hosts() {
            baseline.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        let a = drive(off);
        let b = drive(on);
        let c = drive(baseline);
        assert_eq!(a, b, "recorder on vs off: identical trace and stats");
        assert_eq!(a, c, "Option sink vs compiled-out sink: identical");
    }

    #[test]
    fn note_anomaly_freezes_dump_with_recent_history() {
        let rec = Recorder::new(TelemetryConfig {
            window_ns: 1_000_000,
            ring_capacity: 4,
        });
        let t = {
            let mut t = Topology::new();
            let a = t.add_node(NodeKind::Host);
            let s = t.add_node(NodeKind::Switch);
            let b = t.add_node(NodeKind::Host);
            t.connect(a, s, 1_000_000_000, 10_000);
            t.connect(b, s, 1_000_000_000, 10_000);
            t.compute_routes();
            t
        };
        let mut sim: Simulator<P, Echo, Option<Recorder>> =
            Simulator::with_telemetry(t, SimConfig::ndp(1), Some(rec));
        let plan = FaultPlan::new()
            .link_down(SimTime::from_micros(10), NodeId(0), 0)
            .link_up(SimTime::from_micros(20), NodeId(0), 0);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        sim.note_anomaly(AnomalyKind::Timeout);
        let rec = sim.telemetry_mut().take().unwrap();
        assert_eq!(rec.dumps().len(), 1);
        let dump = &rec.dumps()[0];
        // The ring held the fault/reroute history leading up to the
        // anomaly (cap 4: the newest 4 of link-down, reroute, link-up,
        // reroute, anomaly).
        assert_eq!(dump.events.len(), 4);
        assert!(matches!(
            dump.events.last().unwrap().event,
            FabricEvent::Anomaly(AnomalyKind::Timeout)
        ));
    }

    /// The `(time, rank, seq)` key is a total order independent of push
    /// order: any insertion order pops the same sequence, global
    /// (rank 0) events win ties against node events at the same
    /// instant, and a node's own counter breaks its internal ties.
    #[test]
    fn event_key_is_total_and_push_order_independent() {
        let mk = |at: u64, rank: u32, seq: u64| Ev {
            at: SimTime::from_nanos(at),
            rank,
            seq,
            kind: (),
        };
        // Deliberate ties in time (100) and in (time, rank) (rank 3).
        let keys = [
            (100u64, 0u32, 0u64), // global beats every node event at t=100
            (100, 1, 5),
            (100, 3, 1),
            (100, 3, 2), // same node: counter order
            (100, 7, 0),
            (200, 0, 1),
            (200, 2, 9),
        ];
        let pop_all = |order: &[usize]| -> Vec<(SimTime, u32, u64)> {
            let mut queue = EventQueue::default();
            for &i in order {
                let (at, rank, seq) = keys[i];
                queue.push(mk(at, rank, seq));
            }
            std::iter::from_fn(|| queue.pop())
                .map(|ev| ev.key())
                .collect()
        };
        let forward = pop_all(&[0, 1, 2, 3, 4, 5, 6]);
        let shuffled = pop_all(&[6, 3, 0, 5, 2, 4, 1]);
        assert_eq!(forward, shuffled, "push order must not matter");
        let mut sorted: Vec<_> = keys
            .iter()
            .map(|&(at, r, s)| (SimTime::from_nanos(at), r, s))
            .collect();
        sorted.sort();
        assert_eq!(forward, sorted, "pop order is exactly key order");
        // Global rank sorts first at its instant.
        assert_eq!(forward[0], (SimTime::from_nanos(100), GLOBAL_RANK, 0));
    }

    /// `Arrive` boxes its packet, so a queue entry is the 20-byte key
    /// plus a small kind — every bucket push, sort and swap moves a
    /// fixed few words no matter how fat the payload type is. Pin the
    /// bound so a future inline variant can't silently quadruple the
    /// queue's memory traffic.
    #[test]
    fn heap_event_stays_small_with_boxed_payload() {
        assert!(
            std::mem::size_of::<Ev<NodeEvent<P>>>() <= 48,
            "queue event grew to {} bytes — keep large payload variants boxed",
            std::mem::size_of::<Ev<NodeEvent<P>>>()
        );
        // And the bound is payload-independent: a deliberately fat
        // payload must not widen the event.
        #[derive(Debug, Clone)]
        struct Fat(#[allow(dead_code)] [u64; 32]);
        impl SimPayload for Fat {
            fn is_control(&self) -> bool {
                false
            }
            fn trim(&self) -> Option<Self> {
                None
            }
        }
        assert_eq!(
            std::mem::size_of::<Ev<NodeEvent<Fat>>>(),
            std::mem::size_of::<Ev<NodeEvent<P>>>(),
            "payload size must not leak into the queue entry"
        );
    }

    /// The event loop at any shard count reproduces the one-shard run
    /// byte for byte, through a mid-stream switch failure and repair —
    /// same delivery trace (payloads and timestamps), same stats up to
    /// the shard-machinery counters.
    #[test]
    fn sharded_run_matches_serial_through_faults() {
        let run = |shards: usize| {
            let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
            let hosts = t.hosts().to_vec();
            let (src, dst) = (hosts[0], hosts[15]);
            let edge = t.edge_switch(src);
            let agg = t
                .node_ports(edge)
                .iter()
                .map(|p| p.peer)
                .find(|&n| t.kind(n) == NodeKind::Switch)
                .expect("edge switch has aggregation uplinks");
            let mut cfg = SimConfig::ndp(9);
            cfg.shards = shards;
            cfg.reroute_delay_ns = 50_000;
            let mut sim = Simulator::new(t, cfg);
            for &h in &hosts {
                sim.set_agent(
                    h,
                    Echo {
                        to_send: vec![],
                        received: vec![],
                    },
                );
            }
            for i in 0..60 {
                sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
            }
            sim.schedule_timer(src, SimTime::ZERO, 0);
            let plan = FaultPlan::new()
                .switch_down(SimTime::from_micros(80), agg)
                .switch_up(SimTime::from_micros(500), agg);
            sim.schedule_faults(&plan);
            sim.run_to_completion();
            let raw = sim.stats();
            let slot = sim.cell_of[dst.0 as usize] as usize;
            let trace = sim.cells[slot].agent.take().unwrap().received;
            (raw, trace)
        };
        let (serial_stats, serial_trace) = run(1);
        assert_eq!(serial_stats.shard_epochs, 0);
        for shards in [2usize, 4] {
            let (stats, trace) = run(shards);
            assert!(
                stats.shard_epochs > 0,
                "shards={shards} must actually run sharded"
            );
            assert_eq!(
                serial_stats.shard_invariant(),
                stats.shard_invariant(),
                "shards={shards}: stats diverged"
            );
            assert_eq!(serial_trace, trace, "shards={shards}: trace diverged");
        }
    }

    /// sender — switch — b, the switch's port 1 facing b at `b_rate`.
    /// The sender's id is below the switch's or above it, so its
    /// arrivals at the switch sort before or after the switch's own
    /// events of the same instant.
    fn ranked_sim(
        sender_below_switch: bool,
        b_rate: u64,
        config: SimConfig,
    ) -> (Simulator<P, Echo>, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let (x, s) = if sender_below_switch {
            let x = t.add_node(NodeKind::Host);
            (x, t.add_node(NodeKind::Switch))
        } else {
            let s = t.add_node(NodeKind::Switch);
            (t.add_node(NodeKind::Host), s)
        };
        let b = t.add_node(NodeKind::Host);
        t.connect(x, s, 1_000_000_000, 10_000);
        t.connect(b, s, b_rate, 10_000);
        t.compute_routes();
        let mut sim = Simulator::new(t, config);
        for h in [x, b] {
            sim.set_agent(
                h,
                Echo {
                    to_send: vec![],
                    received: vec![],
                },
            );
        }
        (sim, x, s, b)
    }

    /// Have `from` send `ids` back to back to `to` at `at_us`.
    fn send_at(sim: &mut Simulator<P, Echo>, at_us: u64, from: NodeId, to: NodeId, ids: &[u32]) {
        sim.run_until(SimTime::from_nanos((at_us * 1_000).saturating_sub(1)));
        for &i in ids {
            sim.agent_mut(from).to_send.push(data_pkt(from, to, i));
        }
        sim.schedule_timer(from, SimTime::from_micros(at_us), 0);
    }

    fn arrival_us(sim: &Simulator<P, Echo>, host: NodeId) -> Vec<u64> {
        sim.agent(host)
            .received
            .iter()
            .map(|(at, _)| {
                assert_eq!(at.as_nanos() % 1_000, 0);
                at.as_nanos() / 1_000
            })
            .collect()
    }

    /// The second of two back-to-back packets reaches the switch at
    /// exactly the instant its port to b frees. From a lower-ranked
    /// sender the arrival sorts before the release, queues behind the
    /// wire and makes the release an event; from a higher-ranked one
    /// the release is already past and never exists. Either way the
    /// packet leaves at that instant.
    #[test]
    fn arrival_at_the_release_instant_queues_or_transmits_by_rank() {
        for (below, events) in [(true, 7), (false, 6)] {
            let (mut sim, x, _, b) = ranked_sim(below, 1_000_000_000, SimConfig::ndp(1));
            sim.agent_mut(x).to_send = vec![data_pkt(x, b, 0), data_pkt(x, b, 1)];
            sim.schedule_timer(x, SimTime::ZERO, 0);
            sim.run_to_completion();
            assert_eq!(arrival_us(&sim, b), [44, 56], "below = {below}");
            // The timer, the NIC's release for the second packet, two
            // arrivals at each end — and the switch's release iff the
            // arrival beat it.
            assert_eq!(sim.stats().events, events, "below = {below}");
        }
    }

    /// The same tie with the NDP data queue full: behind the wire the
    /// ninth waiting packet is trimmed; after the release (which took
    /// one off the queue) it fits.
    #[test]
    fn arrival_at_the_release_instant_with_a_full_queue_trims_by_rank() {
        for (below, trimmed) in [(true, 1), (false, 0)] {
            // 100 Mbps to b: packet 0 holds the wire from 22 to 142 µs
            // while 1..=8 arrive every 12 µs and fill the data queue.
            let (mut sim, x, _, b) = ranked_sim(below, 100_000_000, SimConfig::ndp(1));
            send_at(&mut sim, 0, x, b, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
            // Sent at 120 µs: 12 µs on the NIC, 10 µs on the wire.
            send_at(&mut sim, 120, x, b, &[9]);
            sim.run_to_completion();
            assert_eq!(sim.stats().trimmed, trimmed, "below = {below}");
            let rec = &sim.agent(b).received;
            assert_eq!(rec.len(), 10);
            assert_eq!(
                rec.iter().filter(|(_, p)| *p == P::Hdr(9)).count() as u64,
                trimmed
            );
        }
    }

    /// A global kick at exactly the release instant sorts before the
    /// release (rank 0) and finds it armed: it changes nothing.
    #[test]
    fn global_kick_at_the_release_instant_is_a_no_op() {
        let run = |kick: bool| {
            let (mut sim, x, s, b) = ranked_sim(true, 100_000_000, SimConfig::ndp(1));
            sim.agent_mut(x).to_send = (0..4).map(|i| data_pkt(x, b, i)).collect();
            sim.schedule_timer(x, SimTime::ZERO, 0);
            if kick {
                // Packet 0 frees the port at 142 µs with 1..=3 waiting;
                // a rate "change" to the nominal rate is a bare kick.
                let plan =
                    FaultPlan::new().rate_change(SimTime::from_micros(142), s, 1, 100_000_000);
                sim.schedule_faults(&plan);
            }
            sim.run_to_completion();
            (arrival_us(&sim, b), sim.stats().events)
        };
        let (plain, plain_events) = run(false);
        let (kicked, kicked_events) = run(true);
        assert_eq!(plain, [152, 272, 392, 512]);
        assert_eq!(kicked, plain);
        assert_eq!(kicked_events, plain_events + 1, "the fault event itself");
    }

    /// A port kicked twice at one instant — a link repair plus the
    /// repair of its endpoint, two rate changes, two `set_link_rate`
    /// calls — restarts once: the parked packets leave one
    /// serialization time apart, never two on the wire at once.
    #[test]
    fn two_kicks_at_one_instant_restart_the_port_once() {
        let park = |config: SimConfig, plan: FaultPlan| {
            let (mut sim, x, s, b) = ranked_sim(true, 1_000_000_000, config);
            sim.schedule_faults(&plan);
            sim.agent_mut(x).to_send = (0..3).map(|i| data_pkt(x, b, i)).collect();
            sim.schedule_timer(x, SimTime::ZERO, 0);
            (sim, s, b)
        };
        let us = SimTime::from_micros;
        let mut stale = SimConfig::ndp(1);
        stale.reroute_delay_ns = 1_000_000;

        // Stale routes park the burst behind the dead link to b; the
        // link and b itself are repaired at the same instant.
        let plan = FaultPlan::new()
            .link_down(us(5), NodeId(1), 1)
            .link_up(us(100), NodeId(1), 1)
            .host_up(us(100), NodeId(2));
        let (mut sim, _, b) = park(stale, plan);
        sim.run_to_completion();
        assert_eq!(arrival_us(&sim, b), [122, 134, 146], "link + endpoint");

        // A silent rate-0 black hole, lifted by two rate changes.
        let plan = FaultPlan::new()
            .rate_change(us(5), NodeId(1), 1, 0)
            .rate_change(us(100), NodeId(1), 1, 1_000_000_000)
            .rate_change(us(100), NodeId(1), 1, 1_000_000_000);
        let (mut sim, _, b) = park(SimConfig::ndp(1), plan);
        sim.run_to_completion();
        assert_eq!(arrival_us(&sim, b), [122, 134, 146], "two rate changes");

        // The same through the scripting entry point, called twice
        // between run slices (the kick lands at the last event, 46 µs).
        let (mut sim, s, b) = park(SimConfig::ndp(1), FaultPlan::new());
        sim.set_link_rate(s, 1, 0);
        sim.run_until(us(100));
        sim.set_link_rate(s, 1, 1_000_000_000);
        sim.set_link_rate(s, 1, 1_000_000_000);
        sim.run_to_completion();
        assert_eq!(arrival_us(&sim, b), [68, 80, 92], "two set_link_rate calls");
    }

    /// A link that fails, or silently drops to rate 0, while a packet
    /// is serializing on an otherwise empty port: the release is not
    /// in the queue, yet a packet arriving before the wire would have
    /// freed must still wait for it, park when it finds the link dead,
    /// and leave at the repair.
    #[test]
    fn link_loss_mid_serialization_parks_later_arrivals() {
        let us = SimTime::from_micros;
        let mut stale = SimConfig::ndp(1);
        stale.reroute_delay_ns = 1_000_000;
        let silent = FaultPlan::new()
            .rate_change(us(50), NodeId(1), 1, 0)
            .rate_change(us(300), NodeId(1), 1, 100_000_000);
        let detected =
            FaultPlan::new()
                .link_down(us(50), NodeId(1), 1)
                .link_up(us(300), NodeId(1), 1);
        // Packet 0 holds the 100 Mbps wire from 22 to 142 µs; packet 1
        // reaches the switch at 82 µs, inside that.
        for (config, plan, arrivals, lost) in [
            (SimConfig::ndp(1), silent, vec![152, 430], 0),
            // A detected failure also kills the packet on the wire.
            (stale, detected, vec![430], 1),
        ] {
            let (mut sim, x, _, b) = ranked_sim(true, 100_000_000, config);
            sim.schedule_faults(&plan);
            send_at(&mut sim, 0, x, b, &[0]);
            send_at(&mut sim, 60, x, b, &[1]);
            sim.run_until(us(299));
            assert_eq!(sim.queue_stats(NodeId(1), 1).tx_bytes, 1500, "parked");
            sim.run_to_completion();
            assert_eq!(arrival_us(&sim, b), arrivals);
            assert_eq!(sim.stats().lost_to_fault, lost);
        }
    }

    /// A flush empties the queue under an armed release: the release
    /// still fires (it is in the queue), finds nothing, and the port is
    /// idle again for the traffic that follows the repair.
    #[test]
    fn flush_under_an_armed_release_leaves_the_port_usable() {
        let us = SimTime::from_micros;
        let (mut sim, x, s, b) = ranked_sim(true, 100_000_000, SimConfig::ndp(1));
        let plan = FaultPlan::new()
            .link_down(us(50), s, 1)
            .link_up(us(160), s, 1);
        sim.schedule_faults(&plan);
        // 0 is on the wire (due at b at 152 µs) and 1, 2 wait behind it
        // when the link dies.
        send_at(&mut sim, 0, x, b, &[0, 1, 2]);
        send_at(&mut sim, 200, x, b, &[3, 4]);
        sim.run_to_completion();
        assert_eq!(sim.stats().lost_to_fault, 3, "one in flight, two flushed");
        assert_eq!(arrival_us(&sim, b), [352, 472]);
        assert_eq!(sim.agent(b).received[0].1, P::Data(3));
    }

    /// A run cut into slices — the boundary falling inside a calendar
    /// slot with an event on either side of it — and a `set_link_rate`
    /// kick between two slices (an event pushed at the clock's instant,
    /// into the slot the queue is already popping from) deliver exactly
    /// what one uninterrupted run with the same kick scripted does.
    #[test]
    fn sliced_run_and_a_kick_between_slices_match_one_run() {
        let ns = SimTime::from_nanos;
        // b's no-op timers at 46.1 and 46.2 µs share the 256 ns slot
        // 46 080..46 336; a slice ending at 46.15 µs splits it.
        let (first, cut, second) = (46_100, 46_150, 46_200);
        let run = |slices: &[u64], scripted_kick: bool| {
            let (mut sim, x, s, b) = ranked_sim(true, 1_000_000_000, SimConfig::ndp(1));
            // The port to b is a silent black hole until the kick: the
            // burst (at the switch from 22 µs, every 12 µs) parks.
            sim.set_link_rate(s, 1, 0);
            sim.agent_mut(x).to_send = (0..5).map(|i| data_pkt(x, b, i)).collect();
            sim.schedule_timer(x, SimTime::ZERO, 0);
            sim.schedule_timer(b, ns(first), 0);
            sim.schedule_timer(b, ns(second), 0);
            if scripted_kick {
                let plan = FaultPlan::new().rate_change(ns(first), s, 1, 1_000_000_000);
                sim.schedule_faults(&plan);
            }
            for &deadline in slices {
                sim.run_until(ns(deadline));
            }
            if !scripted_kick {
                // Lands at the last executed event, `first`: behind
                // `second`, which the queue has already sorted.
                assert_eq!(sim.now(), ns(first));
                sim.set_link_rate(s, 1, 1_000_000_000);
            }
            sim.run_to_completion();
            sim.agent(b).received.clone()
        };
        let whole = run(&[], true);
        let times: Vec<u64> = whole.iter().map(|(at, _)| at.as_nanos()).collect();
        // Three were parked at the kick; the fourth and fifth (58 and
        // 70 µs at the switch) queue behind them.
        let expect: Vec<u64> = (0..5).map(|i| first + 22_000 + i * 12_000).collect();
        assert_eq!(times, expect);
        assert_eq!(run(&[cut], true), whole, "slice boundary inside a slot");
        assert_eq!(run(&[30_000, cut, 90_000], true), whole, "three slices");
        assert_eq!(run(&[cut], false), whole, "kick between slices");
    }

    /// A timer dated before the clock would run the simulation
    /// backwards; in a release build as much as in a debug one.
    #[test]
    #[should_panic(expected = "is in the simulator's past")]
    fn past_dated_timer_from_the_workload_panics() {
        let (mut sim, a, _) = two_host_sim(SimConfig::ndp(1));
        sim.schedule_timer(a, SimTime::from_micros(10), 0);
        sim.run_to_completion();
        sim.schedule_timer(a, SimTime::from_micros(9), 0);
    }

    /// Agent that, on timer `t`, asks for timer 0 at absolute time `t` ns.
    struct Rearm {
        fired_at: Vec<SimTime>,
    }

    impl Agent<P> for Rearm {
        fn on_packet(&mut self, _: Packet<P>, _: &mut Ctx<P>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<P>) {
            self.fired_at.push(ctx.now);
            if token > 0 {
                ctx.timer_at(SimTime::from_nanos(token), 0);
            }
        }
    }

    fn rearm_sim() -> (Simulator<P, Rearm>, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.compute_routes();
        let mut sim = Simulator::new(t, SimConfig::ndp(1));
        sim.set_agent(a, Rearm { fired_at: vec![] });
        (sim, a)
    }

    #[test]
    #[should_panic(expected = "is in the simulator's past")]
    fn past_dated_timer_from_an_agent_panics() {
        let (mut sim, a) = rearm_sim();
        sim.schedule_timer(a, SimTime::from_nanos(5_000), 4_999);
        sim.run_to_completion();
    }

    /// `at == now` is legal from both entry points, and runs at that
    /// instant, after the event that asked for it.
    #[test]
    fn timer_at_the_current_instant_is_legal() {
        let (mut sim, a) = rearm_sim();
        let t = SimTime::from_nanos(5_000);
        sim.schedule_timer(a, t, 5_000);
        assert_eq!(sim.run_to_completion(), 2);
        assert_eq!(sim.now(), t);
        sim.schedule_timer(a, t, 0);
        assert_eq!(sim.run_to_completion(), 1);
        assert_eq!(sim.agent(a).fired_at, [t, t, t]);
    }

    /// One packet over an idle six-hop path is a timer and six
    /// arrivals: no port it crosses ever has a release queued.
    #[test]
    fn lone_packet_across_the_fat_tree_is_seven_events() {
        let (mut sim, src, dst, _) = fat_tree_sim(3);
        sim.agent_mut(src).to_send.push(data_pkt(src, dst, 0));
        sim.schedule_timer(src, SimTime::ZERO, 0);
        assert_eq!(sim.run_to_completion(), 7);
        assert_eq!(sim.stats().events, 7);
        assert_eq!(arrival_us(&sim, dst), [6 * 22]);
    }
}
