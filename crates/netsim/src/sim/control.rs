//! The control plane: fault events, deferred reroutes, and the per-node
//! effects they leave for whichever shard owns the node.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::evq::{Ev, EventQueue};
use crate::fault::{ElementKey, FaultAction, FaultMask};
use crate::packet::{GroupId, SimPayload};
use crate::telemetry::{FabricEvent, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

use super::layer::clear_memos;
use super::mcast::{build_tree, Group};
use super::net::NodeCell;
use super::{FabricStats, GlobalEvent, NodeEvent, GLOBAL_RANK};

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
    pub(super) pending_down: std::collections::BTreeSet<ElementKey>,
    /// Per-port rate overrides (hotspot/failure injection); keyed by
    /// (node, port), in bits per second. Zero means the link is down.
    pub(super) rate_overrides: HashMap<(u32, u16), u64>,
    /// Indexed by [`GroupId`]: ids are dense and groups are never
    /// removed. Tree repair iterates in id order (seed-stable).
    pub(crate) groups: Vec<Group>,
    /// Counters the control plane owns (reroutes, repairs, flaps, its
    /// own processed events); node-context counters accumulate in
    /// [`Lane::stats`](super::Lane::stats) and the two merge in
    /// [`Simulator::stats`](super::Simulator::stats).
    pub(crate) stats: FabricStats,
    /// The global author's private event counter (rank 0 events).
    pub(crate) gseq: u64,
}

impl Control {
    /// Serialize packets leaving `node` through `port` at `rate_bps`:
    /// an override, unless that is the topology's own rate. Returns
    /// whether the port needs a kick — at a positive rate, packets
    /// parked while it was down (or slower) must get moving again.
    pub(super) fn set_rate(
        &mut self,
        topo: &Topology,
        node: NodeId,
        port: u16,
        rate_bps: u64,
    ) -> bool {
        if rate_bps == topo.port(node, port).rate_bps {
            self.rate_overrides.remove(&(node.0, port));
        } else {
            self.rate_overrides.insert((node.0, port), rate_bps);
        }
        rate_bps > 0
    }
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

/// Push a global event (rank 0, the control plane's counter).
pub(super) fn push_global_event(
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
    let (node, kind) = match ev.kind {
        GlobalEvent::Fault(
            FaultAction::LinkDown { node, .. }
            | FaultAction::LinkUp { node, .. }
            | FaultAction::RateChange { node, .. },
        ) => (node, 3),
        GlobalEvent::Fault(
            FaultAction::SwitchDown { switch } | FaultAction::SwitchUp { switch },
        ) => (switch, 3),
        GlobalEvent::Reroute => (NodeId(0), 4),
    };
    control
        .stats
        .note_event(ev.at, ev.rank, ev.seq, node.0, kind);
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
        LocalOp::ClearMemos => clear_memos(cells),
    }
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
            let key = ElementKey::link(topo, node, port);
            control.pending_down.insert(key);
            ops.push(LocalOp::Flush(node, port));
            ops.push(LocalOp::Flush(back.peer, back.peer_port));
        }
        FaultAction::LinkUp { node, port } => {
            telemetry.record(now, FabricEvent::LinkUp { node: node.0, port });
            let back = *topo.port(node, port);
            control.mask.restore_link(topo, node, port);
            let key = ElementKey::link(topo, node, port);
            if control.pending_down.remove(&key) {
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
            control.pending_down.insert(ElementKey::Node(switch.0));
            for p in 0..topo.node_ports(switch).len() as u16 {
                ops.push(LocalOp::Flush(switch, p));
            }
        }
        FaultAction::SwitchUp { switch } => {
            telemetry.record(now, FabricEvent::NodeUp { node: switch.0 });
            control.mask.restore_node(switch);
            if control.pending_down.remove(&ElementKey::Node(switch.0)) {
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
                if control.set_rate(topo, n, p, rate_bps) {
                    ops.push(LocalOp::Kick(n, p));
                }
            }
        }
    }
}

/// The shared part of a deferred reroute: repair the routing tables in
/// place to the live fault mask (see [`Topology::repair_routes`]; a
/// simulator only runs on routes computed under the topology's current
/// policy, so the repair never falls back to a full recomputation) and
/// rebuild the multicast trees that need it (see [`Group::needs_rebuild`]).
/// Dead-link flushes and memo clears come back as [`LocalOp`]s.
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
            dests_rebuilt: outcome.dests_rebuilt as u32,
            restored: outcome.restored as u32,
        },
    );
    control.stats.reroutes += 1;
    control.stats.reroutes_incremental += 1;
    if outcome.restored > 0 {
        control.stats.restores_incremental += 1;
    }
    control.stats.route_dests_rebuilt += outcome.dests_rebuilt as u64;
    // Stale routes during the convergence window may have enqueued
    // packets onto dead links, where the parked transmit loop would
    // strand them unaccounted forever; flush them as fault losses
    // (the new routes can no longer choose those ports).
    for (node, port) in control.mask.down_links() {
        ops.push(LocalOp::Flush(node, port));
    }
    for (gid, group) in control.groups.iter_mut().enumerate() {
        if !group.needs_rebuild(topo, &control.mask) {
            continue;
        }
        group.tree = build_tree(topo, GroupId(gid as u32), group.sender, &group.receivers);
        control.stats.trees_repaired += 1;
    }
}
