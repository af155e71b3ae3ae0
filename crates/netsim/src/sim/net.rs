//! The data plane: node cells, forwarding, and the transmit loop every
//! node event runs through.

use crate::evq::{Ev, EvKey, EventQueue};
use crate::packet::{Dest, Packet, SimPayload};
use crate::queue::{Enqueued, PortQueue};
use crate::rng::Pcg32;
use crate::telemetry::{FabricEvent, PortProbe};
use crate::time::{serialization_ns, SimTime};
use crate::topology::{NodeId, NodeKind, Topology};

use super::layer::{assign_layer, LayerMemo};
use super::{Agent, Control, Ctx, FabricStats, NodeEvent, RouteMode, SimConfig, WireBox};

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
    pub(super) tx: Vec<PortTx>,
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

/// Emptied [`WireBox`]es a lane keeps for reuse. Bounds what a shard
/// that receives more packets than it sends can hoard; far above the
/// few thousand packets the k = 10 runs ever have in flight.
const LANE_BOXES_MAX: usize = 1 << 14;

/// One shard's execution lane: its event queue, the outboxes its
/// cross-shard arrivals wait in, the stats its node dispatch
/// accumulates, the effect buffers it lends agent callbacks, and the
/// telemetry notes it buffers.
///
/// Dispatch writes every event it emits once, where it will run: a
/// node's own timers and port releases, and an arrival at a node of
/// this shard, go straight into [`Lane::queue`]; an arrival at another
/// shard's node goes into that shard's outbox, which the event loop
/// hands over whole once per window. The simulator owns one persistent lane,
/// shard 0's, whose queue holds every shard's pending events between
/// runs; every other shard worker gets a fresh one whose queue and
/// stats merge into it at run end.
pub(crate) struct Lane<P> {
    /// The shard this lane runs.
    shard: u32,
    /// The node events this shard executes, in key order.
    pub(crate) queue: EventQueue<NodeEvent<P>>,
    /// `outboxes[dst]`: arrivals at shard `dst`'s nodes emitted since
    /// the last hand-over (this shard's own entry stays empty).
    pub(crate) outboxes: Vec<Vec<Ev<NodeEvent<P>>>>,
    pub(crate) stats: FabricStats,
    /// Boxes emptied at dispatch, refilled at the next transmission:
    /// a hop costs a malloc/free pair only while the pool is empty. In
    /// a sharded run a box travels with its packet, so boxes migrate
    /// between lanes.
    boxes: Vec<WireBox<P>>,
    /// The [`Ctx`] buffers, lent to each agent callback and returned
    /// empty by [`apply_ctx`], so their capacity is reused.
    sends: Vec<Packet<P>>,
    timers: Vec<(SimTime, u64)>,
    /// Telemetry events emitted during node dispatch, keyed by the
    /// authoring event. They stay here until the run ends, when the
    /// driver files every lane's notes to the sink in exact key order.
    pub(crate) notes: Vec<(SimTime, u32, u64, FabricEvent)>,
}

impl<P> Lane<P> {
    /// The empty lane of `shard`, one of `shards`.
    pub(crate) fn new(shard: usize, shards: usize) -> Self {
        Self {
            shard: shard as u32,
            queue: EventQueue::default(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            stats: FabricStats::default(),
            boxes: Vec::new(),
            sends: Vec::new(),
            timers: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Emit an arrival: into this shard's queue if the receiving node
    /// is this shard's, else into the receiver's shard's outbox.
    fn emit_arrival(&mut self, shard_of: &[u32], ev: Ev<NodeEvent<P>>) {
        let to = shard_of[target_of(&ev.kind).0 as usize];
        if to == self.shard {
            self.queue.push(ev);
        } else {
            self.outboxes[to as usize].push(ev);
        }
    }
}

/// What a run leaves in the simulator while it holds the simulator's
/// lane: shard 0 of one, empty.
impl<P> Default for Lane<P> {
    fn default() -> Self {
        Self::new(0, 1)
    }
}

/// The read-only context node dispatch runs against: topology and
/// config are immutable for a whole run; control only changes at
/// global events, which are barriers in a sharded run.
pub(crate) struct Env<'a> {
    pub(crate) topo: &'a Topology,
    /// Shard of every node (all 0 at one shard).
    pub(crate) shard_of: &'a [u32],
    pub(crate) config: &'a SimConfig,
    pub(crate) control: &'a Control,
    pub(crate) tele_on: bool,
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
pub(crate) fn target_of<P>(kind: &NodeEvent<P>) -> NodeId {
    match kind {
        NodeEvent::Arrive { to, .. } => *to,
        NodeEvent::Dequeue(n, _) => *n,
        NodeEvent::Timer(n, _) => *n,
    }
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
            to,
            in_port,
            pkt: mut wire,
        } => {
            debug_assert_eq!(to, cell.node);
            lane.stats.note_event(at, rank, seq, to.0, 0);
            let pkt = wire.take().expect("a box on the wire holds its packet");
            if lane.boxes.len() < LANE_BOXES_MAX {
                lane.boxes.push(wire);
            }
            // The packet was on the wire; if the link died under it
            // or the far end is dead, it never really arrives. The mask
            // fails and restores both directions of a link together,
            // so the receiving end's entry stands for the wire.
            if env.control.mask.link_is_down(to, in_port) || env.control.mask.node_is_down(to) {
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
            lane.stats.note_event(at, rank, seq, node.0, 1);
            debug_assert_eq!((at, seq), {
                let tx = &cell.tx[port as usize];
                (tx.free_at, tx.release_seq)
            });
            cell.tx[port as usize].armed = false;
            transmit_next(env, cell, lane, at, port);
        }
        NodeEvent::Timer(node, token) => {
            debug_assert_eq!(node, cell.node);
            lane.stats.note_event(at, rank, seq, node.0, 2);
            let mut ctx = lend_ctx(lane, at, node);
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
    let mut ctx = lend_ctx(lane, now.0, cell.node);
    let agent = cell
        .agent
        .as_mut()
        .expect("packet delivered to a host without an agent");
    agent.on_packet(unwrap_packet(pkt), &mut ctx);
    apply_ctx(env, cell, lane, now, ctx);
}

/// A context for one agent callback at `node`, holding the lane's
/// effect buffers until [`apply_ctx`] hands them back.
fn lend_ctx<P>(lane: &mut Lane<P>, now: SimTime, node: NodeId) -> Ctx<P> {
    Ctx {
        now,
        node,
        sends: std::mem::take(&mut lane.sends),
        timers: std::mem::take(&mut lane.timers),
    }
}

/// Apply a callback's effects, then return its emptied buffers to the
/// lane.
fn apply_ctx<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    now: EvKey,
    ctx: Ctx<P>,
) {
    let Ctx {
        node,
        mut sends,
        mut timers,
        ..
    } = ctx;
    debug_assert_eq!(node, cell.node);
    for (t, token) in timers.drain(..) {
        assert!(
            t >= now.0,
            "timer at {} is in the simulator's past (now {})",
            t,
            now.0
        );
        let seq = cell.next_seq();
        lane.queue.push(Ev {
            at: t,
            rank: node.0 + 1,
            seq,
            kind: NodeEvent::Timer(node, token),
        });
    }
    for pkt in sends.drain(..) {
        // Host NIC: hosts have exactly one port (index 0). The layer
        // stamp stays unset until the first switch assigns it.
        enqueue_and_kick(env, cell, lane, now, 0, wrap_packet(pkt));
    }
    lane.sends = sends;
    lane.timers = timers;
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
            // One host-index resolution per packet; every route
            // lookup below is then a direct arena slice.
            let dst_index = env.topo.host_index(dst);
            let layer = assign_layer(env, cell, lane, (at, rank, seq), &mut pkt, dst, dst_index);
            let choices = env.topo.try_next_ports_at(layer, node, dst_index);
            if choices.is_empty() {
                // The destination is unreachable under the current
                // fault mask; outside faults this is a config bug.
                assert!(
                    !env.control.mask.is_empty() || env.control.stats.reroutes > 0,
                    "no route from switch {} to host {} on a fabric without faults",
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
    // An empty queue in front of a free, live wire: the packet goes
    // straight on, counted as if it had been queued and dequeued.
    if cell.queues[port as usize].is_empty() && !cell.port_busy(port, now) {
        if let Some(rate) = wire_rate(env, cell.node, port) {
            if cell.queues[port as usize].pass(&pkt) {
                put_on_wire(env, cell, lane, now.0, port, rate, pkt);
                return Enqueued::Queued;
            }
        }
    }
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
        if let Some(release) = cell.arm_release(port) {
            lane.queue.push(release);
        }
    } else {
        transmit_next(env, cell, lane, now.0, port);
    }
    outcome
}

/// The rate `(node, port)` transmits at, or `None` while it cannot:
/// a silent rate-0 blackhole or a detected fault. A port that cannot
/// transmit stays idle; queued packets wait for a possible repair (and
/// overflow per queue discipline).
fn wire_rate(env: &Env<'_>, node: NodeId, port: u16) -> Option<u64> {
    let rate = env
        .control
        .rate_overrides
        .get(&(node.0, port))
        .copied()
        .unwrap_or_else(|| env.topo.port(node, port).rate_bps);
    let faulted = env.control.mask.node_is_down(node) || env.control.mask.link_is_down(node, port);
    (rate > 0 && !faulted).then_some(rate)
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
    let Some(rate) = wire_rate(env, cell.node, port) else {
        return;
    };
    if let Some(pkt) = cell.queues[port as usize].dequeue() {
        put_on_wire(env, cell, lane, at, port, rate, pkt);
    }
}

/// Transmit `pkt` from `port` at `at`, the wire free and live at
/// `rate`: its arrival goes out, and the port's release is reserved
/// (and armed if packets wait behind it).
fn put_on_wire<P: SimPayload, A: Agent<P>>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    at: SimTime,
    port: u16,
    rate: u64,
    pkt: Packet<Stamped<P>>,
) {
    let node = cell.node;
    let link = *env.topo.port(node, port);
    let ser = serialization_ns(pkt.size, rate);
    let seq = cell.next_seq();
    let mut wire = lane.boxes.pop().unwrap_or_default();
    *wire = Some(pkt);
    lane.emit_arrival(
        env.shard_of,
        Ev {
            at: at + ser + link.prop_ns,
            rank: node.0 + 1,
            seq,
            kind: NodeEvent::Arrive {
                to: link.peer,
                in_port: link.peer_port,
                pkt: wire,
            },
        },
    );
    // The release's `seq` is drawn here whether or not the event is
    // pushed, so every event this node authors keeps the key an eager
    // release would have given it.
    debug_assert!(!cell.tx[port as usize].armed && ser > 0);
    cell.tx[port as usize].free_at = at + ser;
    cell.tx[port as usize].release_seq = cell.next_seq();
    if !cell.queues[port as usize].is_empty() {
        if let Some(release) = cell.arm_release(port) {
            lane.queue.push(release);
        }
    }
}

/// The equal-cost choice per-flow ECMP makes at `node`: a deterministic
/// hash of (flow, switch), so consecutive switches pick independently
/// but per-flow-stably ([`Topology::pinned_path`](crate::Topology::pinned_path)
/// replays it).
pub(crate) fn ecmp_choice(flow: crate::packet::FlowId, node: NodeId, n_choices: usize) -> usize {
    let h = crate::rng::Pcg32::new(flow.0 ^ (u64::from(node.0) << 40)).next_u32();
    h as usize % n_choices
}
