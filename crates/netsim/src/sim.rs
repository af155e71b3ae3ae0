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
//! events — and the event loop (see `crate::shard`) reproduces one
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
//! Internally the simulator keeps two event queues: the node queue, a
//! calendar queue (see `crate::evq`) of arrivals, port releases and
//! timers — everything a single node authors and a single node
//! consumes — and the much smaller global heap (faults and reroutes,
//! which mutate fabric-wide state). The node queue carries only events
//! that do work: a port's release (`Dequeue`) is reserved when its
//! packet goes on the wire but pushed only once a packet is waiting
//! behind it (see `PortTx`). The event loop (see `crate::shard`) gives
//! every shard its own node queue — one shard runs on the simulator's —
//! pops node events up to the next global event's instant, and executes
//! the global heap at synchronisation barriers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::evq::Ev;
use crate::fault::{FaultAction, FaultMask, FaultPlan};
use crate::packet::{GroupId, Packet, SimPayload};
use crate::queue::{PortQueue, QueueConfig, QueueStats};
use crate::rng::{mix64, Pcg32};
use crate::shard::ShardPlan;
use crate::telemetry::{AnomalyKind, FabricEvent, NoTelemetry, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, RoutingPolicy, Topology};

mod control;
mod layer;
mod mcast;
mod net;
#[cfg(test)]
mod tests;

pub(crate) use control::{apply_global_event, apply_local_op, Control, LocalOp};
pub(crate) use layer::layer_choice;
pub(crate) use net::ecmp_choice;
pub(crate) use net::{dispatch_node, probe_cells, target_of, Env, Lane, NodeCell};

use control::push_global_event;
use layer::LayerMemo;
use mcast::{build_tree, Group};
use net::{PortTx, Stamped};

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

/// Effect buffer handed to agent callbacks. Inside a simulator its two
/// buffers are the execution lane's own, lent for the callback and
/// handed back emptied once its effects are applied, so a callback
/// allocates nothing here.
pub struct Ctx<P> {
    /// Current simulation time.
    pub now: SimTime,
    /// The host this agent runs on.
    pub node: NodeId,
    sends: Vec<Packet<P>>,
    timers: Vec<(SimTime, u64)>,
}

impl<P> Ctx<P> {
    /// A detached context for unit-testing agents outside a simulator.
    /// Effects queued on it are inspectable via [`Ctx::queued_sends`] and
    /// simply discarded on drop.
    pub fn detached(now: SimTime, node: NodeId) -> Self {
        Self {
            now,
            node,
            sends: Vec::new(),
            timers: Vec::new(),
        }
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

/// Queue discipline on every host NIC: deep drop-tail, because host
/// memory is plentiful and the transports self-limit.
pub(crate) const HOST_QUEUE: QueueConfig = QueueConfig::DropTail { cap_pkts: 100_000 };

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Queue discipline on switch ports (host NICs always run a deep
    /// drop-tail queue).
    pub switch_queue: QueueConfig,
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
    /// item 12).
    pub parallelism: usize,
    /// Event-loop shards (see `crate::shard`): 1 = one shard, inline
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
            route: RouteMode::EcmpFlow,
            layer_assign: LayerAssign::FlowHash,
            reroute_delay_ns: 0,
            seed,
            parallelism: 1,
            shards: 1,
        }
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
    /// Packet fully received by `to` on `in_port` (store-and-forward).
    /// Carrying the receiving end makes the target a field read, and
    /// lets the dispatcher drop packets whose link died while they were
    /// on the wire (the mask fails both directions together). Boxed:
    /// `Arrive` dwarfs the other variants, and the queue moves events
    /// by value — a thin event is most of the event loop's memory
    /// traffic.
    Arrive {
        /// Receiving node.
        to: NodeId,
        /// Receiving port on `to`.
        in_port: u16,
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
    /// Route repairs triggered by fault events, each an in-place
    /// [`Topology::repair_routes`] (a simulator only starts on routes
    /// computed for the healthy fabric).
    pub reroutes: u64,
    /// Always equal to [`FabricStats::reroutes`], every reroute being
    /// incremental; kept because `bench_e2e` reports it.
    pub reroutes_incremental: u64,
    /// (layer, access-switch) route columns rebuilt by the block search
    /// across all reroutes: the columns a repair found dirty (host and
    /// access-link faults rebuild none).
    pub route_dests_rebuilt: u64,
    /// Multicast trees rebuilt during reroutes.
    pub trees_repaired: u64,
    /// Down+up pairs of the same element that both landed inside one
    /// convergence window: the pair cancels out of the pending mask
    /// delta, so the deferred reroute sees a no-op — a flapping link
    /// costs its flushed packets, never a route recomputation.
    pub flaps_coalesced: u64,
    /// Reroutes whose delta contained restorations. Every one is healed
    /// in place by [`Topology::repair_routes`], each restored hop joined
    /// by one rule, with column rebuilds only where a distance can
    /// shrink; none pays a full recomputation.
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
    /// The run's schedule in one number: the wrapping sum, over every
    /// executed event, of a 64-bit mix of its key `(at, rank, seq)`,
    /// the node it ran at (a fault's node; 0 for a reroute) and its
    /// kind. Two runs with equal digests executed the same events, at
    /// the same instants, in the same tie-break order — an event that
    /// moves without changing a packet fate or a flow still moves it.
    /// A sum does not depend on the order of its terms, so each shard
    /// lane sums its own events and the lanes merge by addition: the
    /// digest is the same at every shard count, recorded or not.
    pub schedule_digest: u64,
    /// Synchronisation epochs in which two or more shard workers met
    /// at a barrier (0 at one shard). Shard-machinery counter: it
    /// varies with the shard count by construction — compare runs
    /// across shard counts with [`FabricStats::shard_invariant`].
    pub shard_epochs: u64,
    /// Packets handed between shards through the per-epoch mailboxes
    /// (0 at one shard; shard-machinery counter, see
    /// [`FabricStats::shard_invariant`]).
    pub cross_shard_packets: u64,
    /// Mailbox locks the shard workers took: one per non-empty outbox a
    /// worker hands over at the end of a window, and one per shard that
    /// drains mail after it — at most `k·(k − 1) + k` per epoch at `k`
    /// shards, however many packets cross (0 at one shard;
    /// shard-machinery counter, see [`FabricStats::shard_invariant`]).
    pub shard_lock_acquisitions: u64,
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
        self.schedule_digest = self.schedule_digest.wrapping_add(other.schedule_digest);
        self.shard_epochs += other.shard_epochs;
        self.cross_shard_packets += other.cross_shard_packets;
        self.shard_lock_acquisitions += other.shard_lock_acquisitions;
        self.horizon_stalls += other.horizon_stalls;
        self.shard_critical_events += other.shard_critical_events;
    }

    /// Count one executed event into
    /// [`FabricStats::schedule_digest`]: `node` is where it ran, `kind`
    /// its kind's tag (0 arrival, 1 port release, 2 timer, 3 fault,
    /// 4 reroute).
    #[inline]
    pub(crate) fn note_event(&mut self, at: SimTime, rank: u32, seq: u64, node: u32, kind: u8) {
        // `at` below 2^40 ns (18 simulated minutes) and a node's
        // counter below 2^24 fill disjoint bits (past either, two
        // events' words can meet, not just by chance); the odd
        // multiplier spreads the place over all 64.
        let place = u64::from(rank) << 32 | u64::from(node) << 3 | u64::from(kind);
        let word = at.as_nanos() ^ seq.rotate_left(40) ^ place.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.schedule_digest = self.schedule_digest.wrapping_add(mix64(word));
    }

    /// These counters with the shard-machinery fields
    /// ([`FabricStats::shard_epochs`], [`FabricStats::cross_shard_packets`],
    /// [`FabricStats::shard_lock_acquisitions`],
    /// [`FabricStats::horizon_stalls`],
    /// [`FabricStats::shard_critical_events`]) zeroed. Every other field is
    /// byte-identical across shard counts per seed; the machinery
    /// counters describe the runner, not the simulated fabric, so
    /// cross-shard-count comparisons go through this view.
    pub fn shard_invariant(&self) -> FabricStats {
        let mut s = *self;
        s.shard_epochs = 0;
        s.cross_shard_packets = 0;
        s.shard_lock_acquisitions = 0;
        s.horizon_stalls = 0;
        s.shard_critical_events = 0;
        s
    }
}

/// The deterministic packet-level simulator.
///
/// The third type parameter is the telemetry sink (see
/// [`crate::telemetry`]): the default [`NoTelemetry`] monomorphizes
/// every hook to nothing and `Option<Recorder>` is the one recording
/// sink, switchable at run time. Enabling telemetry never
/// perturbs results: no probe events enter the queues and no RNG is
/// consumed, so event order and every random draw are unchanged.
pub struct Simulator<P: SimPayload, A: Agent<P>, T: TelemetrySink = NoTelemetry> {
    pub(crate) topo: Topology,
    pub(crate) config: SimConfig,
    /// Shard partition at the resolved shard count (one shard: the
    /// whole fabric, see `crate::shard`).
    pub(crate) plan: ShardPlan,
    /// One cell per node, stored grouped by shard (identity order at
    /// one shard); [`Simulator::cell_of`] maps node id → slot.
    pub(crate) cells: Vec<NodeCell<P, A>>,
    pub(crate) cell_of: Vec<u32>,
    /// The global-event heap (faults, reroutes).
    pub(crate) gevents: BinaryHeap<Reverse<Ev<GlobalEvent>>>,
    pub(crate) control: Control,
    /// Shard 0's lane. Its queue holds every shard's pending node
    /// events between runs; the other workers' queues and stats merge
    /// into it at run end, so its stats accumulate across runs.
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
    ///
    /// # Panics
    /// Panics if the topology was never routed, or its routes were
    /// computed under a fault mask: a run starts on the healthy fabric,
    /// its faults come from its fault plan, and its reroutes only repair
    /// the routes in place.
    pub fn with_telemetry(topo: Topology, config: SimConfig, telemetry: T) -> Self {
        assert!(topo.routed(), "simulator needs a routed topology");
        assert!(
            topo.routes_mask().is_empty(),
            "simulator needs routes computed for the healthy fabric"
        );
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
                NodeKind::Host => HOST_QUEUE,
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
        let lane = Lane::new(0, plan.shards);
        Self {
            topo,
            config,
            plan,
            cells,
            cell_of,
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
            lane,
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
        self.lane.queue.push(Ev {
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
        if self.control.set_rate(&self.topo, node, port, rate_bps) {
            let now = self.now;
            if let Some(ev) = self.cell_mut(node).kick(now, port) {
                self.lane.queue.push(ev);
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

    /// Flag an anomaly on the telemetry sink: an `Anomaly` annotation
    /// at the current instant. Workloads call this post-run for
    /// transport-level anomalies — timeouts, stranded sessions — that
    /// the fabric cannot see itself.
    pub fn note_anomaly(&mut self, kind: AnomalyKind) {
        let now = self.now;
        self.telemetry.record(now, FabricEvent::Anomaly(kind));
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
                !self.topo.try_next_ports_on(0, sender, r).is_empty(),
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
    /// This is the one event loop (`crate::shard`): at one shard it
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
