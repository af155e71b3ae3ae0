//! Incremental route repair: one pass per (layer, column) applies the
//! fabric delta in place — failed hops excised, dead switches cleared,
//! each restored hop joined by one rule — and a block search rebuilds
//! only the columns where a distance may have changed.

use crate::fault::FaultMask;

use super::routes::{LayerTables, LiveFabric, LiveLink, UNREACHABLE};
use super::{NodeId, Topology};

/// Outcome of an incremental [`Topology::repair_routes`] call —
/// how much of the routing state had to be recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRepair {
    /// Always false: a repair never recomputes every column. Pinned by
    /// `bench_e2e` until its next revision (ROADMAP item 12(a)).
    pub full: bool,
    /// (layer, access-switch) columns rebuilt by the route search:
    /// usually a small fraction of `access switches × layers` after a
    /// single link or switch failure, and 0 after a host or access-link
    /// fault (a bit flip, no column).
    pub dests_rebuilt: usize,
    /// Restored elements (undirected links + nodes, host-side ones
    /// included) in the delta. These were healed in place — each
    /// restored hop joined where it is an equal-cost next hop — and only
    /// columns whose distance can shrink were rebuilt.
    pub restored: usize,
}

impl Topology {
    /// Incrementally repair every layer's routing tables after the
    /// fault mask changed — the fast path for the common case of one
    /// (or a few) new link or switch failures or restorations.
    ///
    /// **Hosts.** A host or access-link fault (or repair) touches no
    /// table: it flips the host's `cut` bit (only the hosts the delta
    /// names are refreshed), and a delta of nothing else (or an empty
    /// one) returns there, rebuilding no column.
    ///
    /// **The fabric.** The repair diffs `mask` against the mask the
    /// tables were last computed with and applies the switch-to-switch
    /// delta to each (layer, column) in one pass of three steps:
    ///
    /// 1. *Excise* every newly dead directed hop out of live switches'
    ///    cells — its bit cleared in the cell's next-hop mask.
    ///    Removing an advertised port can only change distances when it
    ///    was the cell's last (any surviving port still reaches a
    ///    neighbour strictly closer under the layer's weights, so every
    ///    distance is preserved by induction); a cell that empties
    ///    dirties the column.
    /// 2. *Clear* the cells and distances of newly dead switches.
    /// 3. *Join* each restored element, in order, with exact distances
    ///    in hand. A restored directed hop `u —p→ v` of weight `w` does
    ///    nothing if `v` is unreachable, dirties the column if
    ///    `d(u) > d(v) + w` (it shortens a path, which can cascade), and
    ///    sets `p`'s bit in `u`'s mask if `d(u) = d(v) + w`. A revived switch
    ///    takes one link past its closest live neighbour as its distance
    ///    (the column it roots is dirty), then joins its hops in both
    ///    directions by the same rule.
    ///
    /// Dirty columns are rebuilt by the same block search a full
    /// recompute runs. A mass delta simply rebuilds its (large) dirty
    /// column set — never more work than a full recompute, which visits
    /// every column anyway.
    ///
    /// The result is always identical to a full recomputation against
    /// `mask` (property-tested in `fabric_invariants`).
    ///
    /// # Panics
    /// Panics if routes were never computed: there is nothing to repair.
    pub fn repair_routes(&mut self, mask: &FaultMask) -> RouteRepair {
        assert!(
            self.routed(),
            "repair_routes needs routes: call compute_routes first"
        );
        let new_links = mask.new_links_since(&self.routes_mask);
        let new_nodes = mask.new_nodes_since(&self.routes_mask);
        let restored_links = mask.restored_links_since(&self.routes_mask);
        let restored_nodes = mask.restored_nodes_since(&self.routes_mask);
        // Directed link entries come in symmetric pairs (masks store
        // both directions): two per undirected link.
        let restored = restored_links.len() / 2 + restored_nodes.len();
        // A host's cut bit reads only the host and its access link, so
        // only the hosts the delta names can change: a link's host end
        // is named, since masks store both directions.
        let nodes = new_nodes.iter().chain(&restored_nodes).copied();
        let link_ends = new_links.iter().chain(&restored_links).map(|&(n, _)| n);
        for n in nodes.chain(link_ends) {
            self.refresh_cut(mask, n);
        }
        let ix = &self.switches;
        let row = |n: NodeId| ix.rows[n.0 as usize].row as usize;
        let is_switch = |n: NodeId| !ix.rows[n.0 as usize].is_host();
        let up_switch = |n: NodeId| is_switch(n) && !mask.node_is_down(n);
        let new_switches: Vec<NodeId> = new_nodes.into_iter().filter(|&w| is_switch(w)).collect();
        // Failed fabric links (masks store both directions) and the
        // hops into a newly dead switch, at their live ends, in switch
        // rows.
        let mut excised: Vec<(usize, u16)> = new_links
            .into_iter()
            .chain(
                new_switches
                    .iter()
                    .flat_map(|&w| self.node_ports(w).iter().map(|p| (p.peer, p.peer_port))),
            )
            .filter(|&(n, p)| up_switch(n) && is_switch(self.port(n, p).peer))
            .map(|(n, p)| (row(n), p))
            .collect();
        excised.sort_unstable();
        excised.dedup();
        let revived: Vec<usize> = restored_nodes
            .into_iter()
            .filter(|&w| is_switch(w))
            .map(row)
            .collect();
        // A restored link carries traffic only between live switches.
        let restored_hops: Vec<(NodeId, u16)> = restored_links
            .into_iter()
            .filter(|&(n, p)| up_switch(n) && up_switch(self.port(n, p).peer))
            .collect();
        let dead: Vec<usize> = new_switches.into_iter().map(row).collect();
        if excised.is_empty() && revived.is_empty() && restored_hops.is_empty() && dead.is_empty() {
            // Hosts and host links only: no table holds them.
            self.routes_mask.clone_from(mask);
            return RouteRepair {
                full: false,
                dests_rebuilt: 0,
                restored,
            };
        }
        let live = LiveFabric::build(self, mask);
        // The restored directed hop (n, p), in switch rows.
        let hop = |n: NodeId, p: u16| {
            let gid = self.port_off[n.0 as usize] + u32::from(p);
            let peer = row(self.ports[gid as usize].peer) as u32;
            Join::Hop(row(n), LiveLink { peer, gid, port: p })
        };
        let mut joins = Vec::new();
        for &w in &revived {
            joins.push(Join::Revive(w));
            for &link in live.of(w) {
                let back = self.ports[link.gid as usize];
                joins.push(Join::Hop(w, link));
                joins.push(hop(back.peer, back.peer_port));
            }
        }
        joins.extend(restored_hops.into_iter().map(|(n, p)| hop(n, p)));
        // One pass over column `col` (rooted at switch row `root`) of a
        // layer: whether it must be rebuilt. A dirty column is left
        // half-done, since its rebuild rewrites all of it.
        let repair_column = |tab: &mut LayerTables, weights: &[u8], col: usize, root: usize| {
            let weight = |link: &LiveLink| u32::from(weights[link.gid as usize]);
            if excised
                .iter()
                .any(|&(u, p)| tab.excise(u, col, p) == Some(0))
            {
                return true;
            }
            for &w in &dead {
                tab.clear(w, col);
            }
            joins.iter().any(|join| match *join {
                Join::Revive(w) if w == root => true,
                Join::Revive(w) => {
                    let d = live
                        .of(w)
                        .iter()
                        .filter_map(|link| match tab.dist_at(link.peer as usize, col) {
                            UNREACHABLE => None,
                            d => Some(u32::from(d) + weight(link)),
                        })
                        .min();
                    tab.set_dist(w, col, d);
                    false
                }
                Join::Hop(u, link) => {
                    tab.join_hop(col, u, link.port, link.peer as usize, weight(&link))
                }
            })
        };
        let dirty: Vec<Vec<bool>> = self
            .layers
            .iter_mut()
            .zip(&self.weights)
            .map(|(tab, weights)| {
                self.col_root
                    .iter()
                    .enumerate()
                    .map(|(col, &root)| repair_column(tab, weights, col, row(root)))
                    .collect()
            })
            .collect();
        self.rebuild_columns(mask, &live, Some(&dirty));
        self.routes_mask.clone_from(mask);
        RouteRepair {
            full: false,
            dests_rebuilt: dirty.iter().flatten().filter(|&&d| d).count(),
            restored,
        }
    }
}

/// One restored element's step in a column pass, in delta order.
enum Join {
    /// A revived switch's row takes its distance: one link past its
    /// closest live neighbour. Its hops follow as [`Join::Hop`]s.
    Revive(usize),
    /// A restored directed hop out of a switch row.
    Hop(usize, LiveLink),
}
