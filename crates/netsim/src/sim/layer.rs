//! Routing-layer choice: the layer a unicast packet rides, and the
//! per-switch memo of flows moved off a dead one.

use std::collections::HashMap;

use crate::evq::EvKey;
use crate::packet::{Packet, SimPayload};
use crate::telemetry::FabricEvent;
use crate::topology::NodeId;

use super::net::{Env, Lane, NodeCell, Stamped, LAYER_UNSTAMPED};
use super::LayerAssign;

/// Per-switch memo of layer re-assignments, `(flow, destination) →
/// layer`: filled only under a fault era (a healthy fabric never
/// allocates one) and cleared at every mask change. It is looked up,
/// never iterated, so the map's order cannot reach a run; it is
/// per-switch rather than fabric-global so shards never share
/// forwarding state.
pub(crate) type LayerMemo = HashMap<(u64, u32), u8>;

/// Whether `layer` has at least one advertised port at `node`
/// towards `dst` that is locally usable (link and far end up under
/// the live mask — switch-local knowledge, no control plane
/// required).
fn layer_live(env: &Env<'_>, layer: usize, node: NodeId, dst_index: usize) -> bool {
    env.topo
        .try_next_ports_at(layer, node, dst_index)
        .iter()
        .any(|p| env.control.mask.port_is_up(env.topo, node, p))
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
        for p in env.topo.try_next_ports_at(layer, at, dst_index).iter() {
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

/// The routing layer [`LayerAssign::FlowHash`] assigns a flow to: a
/// deterministic hash of the flow id alone, so every switch agrees on
/// the flow's layer without per-packet state — equivalent to the source
/// stamping the layer in the packet header, as FatPaths does
/// ([`Topology::pinned_path`](crate::Topology::pinned_path) replays it).
pub(crate) fn layer_choice(flow: crate::packet::FlowId, n_layers: usize) -> usize {
    if n_layers <= 1 {
        return 0;
    }
    let h = crate::rng::Pcg32::new(flow.0 ^ 0x7A9E_12C4_55AA_01FE).next_u32();
    h as usize % n_layers
}

/// The routing layer a unicast packet rides out of this switch, stamped
/// into the packet so downstream hops follow it without re-hashing. A
/// single-layer policy skips the layer machinery entirely: layer 0.
pub(super) fn assign_layer<P: SimPayload, A>(
    env: &Env<'_>,
    cell: &mut NodeCell<P, A>,
    lane: &mut Lane<P>,
    (at, rank, seq): EvKey,
    pkt: &mut Packet<Stamped<P>>,
    dst: NodeId,
    dst_index: usize,
) -> usize {
    let n_layers = env.topo.layer_count();
    if n_layers <= 1 {
        return 0;
    }
    let LayerAssign::FlowHash = env.config.layer_assign;
    let (node, flow) = (cell.node, pkt.flow);
    let stamp = pkt.payload.layer;
    // A move away from the layer the flow would ride: (from, to).
    let mut moved = None;
    let layer = if stamp == LAYER_UNSTAMPED {
        // First switch: assign the flow's layer. Healthy mask — pure
        // hash, no memo traffic. Under a fault era, steer the whole
        // flow off a layer whose path to the destination is cut
        // anywhere downstream (the source-side re-assignment the
        // per-era memo makes cheap: one DAG walk per (flow, dst) per
        // era, memoized until the mask next changes).
        if env.control.mask.is_empty() {
            layer_choice(flow, n_layers)
        } else if let Some(&memoed) = cell.memo.get(&(flow.0, dst.0)) {
            memoed as usize
        } else {
            let hashed = layer_choice(flow, n_layers);
            let mut pick = hashed;
            if !layer_path_live(env, hashed, node, dst, dst_index) {
                if let Some(alt) = (1..n_layers)
                    .map(|k| (hashed + k) % n_layers)
                    .find(|&l| layer_path_live(env, l, node, dst, dst_index))
                {
                    pick = alt;
                    moved = Some((hashed, alt));
                }
            }
            cell.memo.insert((flow.0, dst.0), pick as u8);
            pick
        }
    } else {
        // Interior hop: obey the stamp unless the stamped layer is
        // dead at this hop (ECMP steered the packet into a cut branch,
        // or the fault struck after the stamp) — then move to a
        // locally live layer. At most one move per (switch, flow,
        // destination) per fault era — a memoed move is never
        // overwritten, or two half-dead layers could ping-pong a
        // packet between neighbouring switches for the whole stale
        // window.
        let assigned = stamp as usize;
        if layer_live(env, assigned, node, dst_index) {
            assigned
        } else if let Some(&memoed) = cell.memo.get(&(flow.0, dst.0)) {
            memoed as usize
        } else if let Some(alt) = (1..n_layers)
            .map(|k| (assigned + k) % n_layers)
            .find(|&l| layer_live(env, l, node, dst_index))
        {
            cell.memo.insert((flow.0, dst.0), alt as u8);
            moved = Some((assigned, alt));
            alt
        } else {
            assigned
        }
    };
    if let Some((from, to)) = moved {
        lane.stats.layer_reassignments += 1;
        if env.tele_on {
            let note = FabricEvent::LayerReassign {
                flow: flow.0,
                dst: dst.0,
                from: from as u8,
                to: to as u8,
            };
            lane.notes.push((at, rank, seq, note));
        }
    }
    pkt.payload.layer = layer as u8;
    layer
}

/// Forget every cell's layer re-assignments: the memos cache a pure
/// function of the fault mask's era.
pub(super) fn clear_memos<P: SimPayload, A>(cells: &mut [NodeCell<P, A>]) {
    for cell in cells {
        cell.memo.clear();
    }
}
