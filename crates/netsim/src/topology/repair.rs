//! Incremental route repair: excision and restore surgery in place, and
//! a search rebuild of only the columns where a distance changed.

use crate::fault::FaultMask;

use super::routes::{LayerTables, LiveFabric, SwitchIndex};
use super::{host_cut, NodeId, NodeKind, Port, Topology};

/// Outcome of an incremental [`Topology::repair_routes`] call —
/// how much of the routing state had to be recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRepair {
    /// The repair fell back to a full [`Topology::compute_routes_masked`]
    /// because routes were never computed — the first routing of a
    /// hand-built graph. A generator's topology, and every topology a
    /// simulator runs, is routed already, so this is always false there.
    pub full: bool,
    /// (layer, access-switch) columns rebuilt by the route search.
    /// Equals `access switches × layers` on a full fallback; usually a
    /// small fraction of it after a single link or switch failure, and
    /// 0 after a host or access-link fault (a bit flip, no column).
    pub dests_rebuilt: usize,
    /// (layer, access-switch) route columns touched by dead-entry
    /// surgery alone (advertised ports removed without any distance
    /// change).
    pub dests_touched: usize,
    /// Restored elements (undirected links + nodes, host-side ones
    /// included) in the delta. When `full` is false these were healed
    /// by bounded restore surgery — re-advertising equal-cost ports in
    /// place and search-rebuilding only columns whose distance can shrink.
    pub restored: usize,
}

impl Topology {
    /// Incrementally repair every layer's routing tables after the
    /// fault mask changed — the fast path for the common case of one
    /// (or a few) new link or switch failures or restorations.
    ///
    /// **Hosts.** A host or access-link fault (or repair) touches no
    /// table: it flips the host's `cut` bit and is done.
    ///
    /// **Failures.** The repair diffs `mask` against the mask the tables
    /// were last computed with and excises the newly dead directed
    /// switch-to-switch `(node, port)` entries from every layer cell
    /// they are advertised in — an in-place shift within the
    /// fixed-capacity cell, swept contiguously across the node's arena
    /// region. Removing an advertised port can only change
    /// shortest-path *distances* when it was the node's last advertised
    /// port in that layer (any surviving advertised port still reaches
    /// a neighbour strictly closer under the layer's weights, so every
    /// distance is preserved by induction); only those (layer, column)
    /// pairs are rebuilt, by the same block search a full recompute
    /// runs.
    ///
    /// **Restorations.** A restored element can only *shrink* distances.
    /// Using each layer's retained distance table the repair decides per
    /// (layer, column) in O(degree) whether the restored link/switch
    /// lies on a strictly shorter weighted path: if not, the restoration
    /// is pure surgery — the restored ports are re-advertised exactly
    /// where they are equal-cost next hops — and only columns whose
    /// distance can actually shrink (including previously cut-off ones)
    /// are rebuilt.
    ///
    /// Falls back to a full [`Topology::compute_routes_masked`] — and
    /// says so in the returned [`RouteRepair`] — only when routes were
    /// never computed, so there is nothing to repair. Every layer repairs
    /// incrementally, and a mass delta simply rebuilds its (large) dirty
    /// column set — never more work than a full recompute, which visits
    /// every column anyway.
    ///
    /// The result is always identical to a full recomputation against
    /// `mask` (property-tested in `fabric_invariants`).
    pub fn repair_routes(&mut self, mask: &FaultMask) -> RouteRepair {
        let restored_links = mask.restored_links_since(&self.routes_mask);
        let restored_nodes = mask.restored_nodes_since(&self.routes_mask);
        // Directed link entries come in symmetric pairs (masks store
        // both directions): two per undirected link.
        let restored = restored_links.len() / 2 + restored_nodes.len();
        let n_layers = self.policy.layers;
        if !self.routed() {
            self.compute_routes_masked(mask);
            let all = self.col_root.len() * n_layers;
            return RouteRepair {
                full: true,
                dests_rebuilt: all,
                dests_touched: all,
                restored,
            };
        }
        let new_links = mask.new_links_since(&self.routes_mask);
        let new_nodes = mask.new_nodes_since(&self.routes_mask);
        // Host-side delta: refresh the cut bit of every host whose own
        // state or access link changed. The tables below never see it.
        for &n in (new_links.iter().chain(&restored_links).map(|(n, _)| n))
            .chain(new_nodes.iter().chain(&restored_nodes))
        {
            if let Some(h) = self.host_index[n.0 as usize] {
                self.access[h as usize].cut = host_cut(mask, n);
            }
        }
        // Fabric-side delta: what is left once hosts and access links
        // are taken out. Every newly dead directed switch-to-switch
        // (node, port) hop: the failed links (masks store both
        // directions) plus each port of — and into — a newly failed
        // switch.
        let is_switch = |n: NodeId| self.kinds[n.0 as usize] == NodeKind::Switch;
        let fabric_hop =
            |&(n, p): &(u32, u16)| is_switch(NodeId(n)) && is_switch(self.port(NodeId(n), p).peer);
        let dead_switches: Vec<NodeId> = new_nodes.into_iter().filter(|&w| is_switch(w)).collect();
        let restored_switches: Vec<NodeId> = restored_nodes
            .into_iter()
            .filter(|&w| is_switch(w))
            .collect();
        // Each restored undirected fabric link once, from its lower end.
        let restored_fabric: Vec<(u32, u16)> = restored_links
            .iter()
            .map(|&(n, p)| (n.0, p))
            .filter(|&(n, p)| n < self.port(NodeId(n), p).peer.0)
            .filter(fabric_hop)
            .collect();
        let mut dead: Vec<(u32, u16)> = new_links.iter().map(|&(n, p)| (n.0, p)).collect();
        for &w in &dead_switches {
            for (pi, p) in self.node_ports(w).iter().enumerate() {
                dead.push((w.0, pi as u16));
                dead.push((p.peer.0, p.peer_port));
            }
        }
        dead.retain(fabric_hop);
        dead.sort_unstable();
        dead.dedup();
        // Surgery runs layer-major, dead-entry-major within a layer:
        // each dead (u, p) sweeps switch u's route cells across all
        // columns (one cell per column stride in the column-major
        // arena), shifting entries in place and flagging per-column
        // outcomes in bitmaps that are aggregated afterwards.
        let n_cols = self.col_root.len();
        let live = LiveFabric::build(self, mask);
        let mut dirty_cols: Vec<Vec<bool>> = Vec::with_capacity(n_layers);
        let mut touched_total = 0usize;
        for layer in 0..n_layers {
            let mut col_touched = vec![false; n_cols];
            let mut col_dirty = vec![false; n_cols];
            let tab = &mut self.layers[layer];
            let ix = &self.switches;
            for &(u, p) in &dead {
                // A live switch that loses its last advertised port may
                // now be farther from (or cut off from) the column's
                // root, which can cascade; those columns are rebuilt.
                // Dead switches' distances are irrelevant (their cells
                // are cleared below).
                let alive = !mask.node_is_down(NodeId(u));
                let row = ix.rows[u as usize].row as usize;
                for col in 0..n_cols {
                    if let Some(left) = tab.excise(ix, row, col, p) {
                        col_touched[col] = true;
                        col_dirty[col] |= left == 0 && alive;
                    }
                }
            }
            // A dead switch advertises nothing and is unreachable
            // everywhere (full recomputation never visits it); clear its
            // cells and distances wholesale. (Its own column empties by
            // the rule above: its nearest neighbour loses its last port.)
            for &w in &dead_switches {
                tab.clear_row(ix.rows[w.0 as usize].row as usize);
            }
            // Restore surgery, against the post-excision tables.
            // Distances of non-dirty columns are exact here (failure
            // surgery preserves them by the last-port argument), so each
            // restored element can be checked and patched in place;
            // dirty columns are skipped — their rebuild below covers
            // everything at once.
            restore_surgery_layer(
                &live,
                &self.ports,
                &self.port_off,
                ix,
                &self.col_root,
                &self.weights[layer],
                mask,
                &restored_fabric,
                &restored_switches,
                tab,
                &mut col_dirty,
            );
            touched_total += (0..n_cols)
                .filter(|&c| col_touched[c] && !col_dirty[c])
                .count();
            dirty_cols.push(col_dirty);
        }
        let dirty_total: usize = dirty_cols
            .iter()
            .map(|cols| cols.iter().filter(|&&d| d).count())
            .sum();
        self.rebuild_columns(mask, &live, Some(&dirty_cols));
        self.routes_mask = mask.clone();
        RouteRepair {
            full: false,
            dests_rebuilt: dirty_total,
            dests_touched: touched_total,
            restored,
        }
    }
}

/// Patch one layer's route arena for restored switches and fabric
/// links, column by column. For every column whose distances cannot
/// shrink, restored ports are re-advertised exactly where they are
/// equal-cost next hops under the layer's weights — in-place cell
/// shifts, no allocation; columns where the restored element lies on a
/// strictly shorter weighted path (or re-attaches a cut-off region) are
/// flagged in `col_dirty` for a search rebuild. Elements are
/// processed sequentially, so a restored switch's freshly computed
/// distance feeds the checks of later elements in the same delta.
// The column loops index several parallel per-column tables
// (`col_dirty`, the layer's columns, `roots`); iterator chains would
// obscure that they advance in lockstep.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn restore_surgery_layer(
    live: &LiveFabric,
    ports: &[Port],
    off: &[u32],
    ix: &SwitchIndex,
    roots: &[NodeId],
    weights: &[u8],
    mask: &FaultMask,
    restored_links: &[(u32, u16)],
    restored_switches: &[NodeId],
    tab: &mut LayerTables,
    col_dirty: &mut [bool],
) {
    for &w in restored_switches {
        let rw = ix.rows[w.0 as usize].row as usize;
        // w's usable links under the new mask: (port, peer row, the
        // peer's port back to w, link weight).
        let usable: Vec<(u16, usize, u16, u32)> = live
            .of(rw)
            .iter()
            .map(|link| {
                (
                    link.port,
                    link.peer as usize,
                    ports[link.gid as usize].peer_port,
                    weights[link.gid as usize] as u32,
                )
            })
            .collect();
        let mut own = Vec::with_capacity(usable.len());
        for col in 0..roots.len() {
            if col_dirty[col] {
                continue;
            }
            // The restored switch is this column's root: the whole
            // column was cleared when it died.
            if roots[col] == w {
                col_dirty[col] = true;
                continue;
            }
            // New distance of w: one link past its closest reachable
            // usable neighbour.
            let dw = usable
                .iter()
                .map(|&(_, peer, _, wl)| tab.dist_at(peer, col).saturating_add(wl))
                .min()
                .unwrap_or(u32::MAX);
            if dw == u32::MAX {
                continue; // still cut off; cell stays empty
            }
            // Any usable neighbour strictly farther than dw + w(link)
            // (including unreachable ones) gets closer through w — the
            // shrink can cascade, so rebuild this column.
            if usable
                .iter()
                .any(|&(_, peer, _, wl)| tab.dist_at(peer, col) > dw + wl)
            {
                col_dirty[col] = true;
                continue;
            }
            // Pure surgery: record w's own advertised ports straight
            // into its (empty — cleared when it died) cell, and make w
            // an additional equal-cost hop at neighbours one link
            // further out.
            tab.set_dist(rw, col, dw);
            own.clear();
            for &(pi, peer, back, wl) in &usable {
                let dp = tab.dist_at(peer, col);
                if dp + wl == dw {
                    own.push(pi);
                } else if dp == dw + wl {
                    tab.insert_port(ix, peer, col, back);
                }
            }
            tab.set_advertised(ix, rw, col, &own);
        }
    }
    for &(u, p) in restored_links {
        let gid = off[u as usize] as usize + p as usize;
        let (v, q) = (ports[gid].peer, ports[gid].peer_port);
        // The link only carries traffic if both endpoints are alive.
        if mask.node_is_down(NodeId(u)) || mask.node_is_down(v) {
            continue;
        }
        let (ru, rv) = (
            ix.rows[u as usize].row as usize,
            ix.rows[v.0 as usize].row as usize,
        );
        let wl = weights[gid] as u32;
        for col in 0..roots.len() {
            if col_dirty[col] {
                continue;
            }
            let du = tab.dist_at(ru, col);
            let dv = tab.dist_at(rv, col);
            if du == u32::MAX && dv == u32::MAX {
                continue; // both sides cut off; the link helps nobody
            }
            // One side unreachable or farther than the link's weight:
            // the restored link shortens (or creates) paths — rebuild.
            if du.max(dv) > du.min(dv).saturating_add(wl) {
                col_dirty[col] = true;
                continue;
            }
            // Equal-cost surgery: the downhill direction (if any)
            // becomes a newly advertised shortest-path port. (When the
            // gap is smaller than the link's weight — e.g. equal
            // distances, or a gap of 1 on a weight-2 link — no shortest
            // path uses the link and nothing changes.)
            if du == dv + wl {
                tab.insert_port(ix, ru, col, p);
            } else if dv == du + wl {
                tab.insert_port(ix, rv, col, q);
            }
        }
    }
}
