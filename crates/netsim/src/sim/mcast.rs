//! Multicast groups and their forwarding trees.

use std::collections::BTreeMap;

use crate::fault::FaultMask;
use crate::packet::GroupId;
use crate::rng::Pcg32;
use crate::topology::{NodeId, Topology};

/// A registered multicast group: membership is retained so the
/// forwarding tree can be rebuilt when faults change the fabric.
pub(crate) struct Group {
    pub(super) sender: NodeId,
    pub(super) receivers: Vec<NodeId>,
    pub(crate) tree: Tree,
}

impl Group {
    /// Whether a reroute must rebuild this group's tree: a recorded hop
    /// is dead under the live mask (node, link or far end), or
    /// [`build_tree`] left out a member the repaired routes may reach.
    pub(super) fn needs_rebuild(&self, topo: &Topology, mask: &FaultMask) -> bool {
        self.tree.partial
            || self.tree.hops().any(|(node, ports)| {
                mask.node_is_down(node) || ports.iter().any(|&p| !mask.port_is_up(topo, node, p))
            })
    }
}

/// A multicast forwarding tree, flat: looked up once per multicast hop.
#[derive(Default)]
pub(crate) struct Tree {
    /// One entry per tree node, ascending by node: the node and the
    /// range of `ports` holding its out-ports.
    hops: Vec<(NodeId, u16, u16)>,
    ports: Vec<u16>,
    /// Some receiver was unreachable when the tree was built.
    partial: bool,
}

impl Tree {
    /// The tree's out-ports at `node`, if the tree visits it. A tree
    /// is a dozen nodes in two cache lines: a linear scan, with none
    /// of a binary search's mispredicted branches.
    pub(super) fn ports_at(&self, node: NodeId) -> Option<&[u16]> {
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

/// Union of per-receiver paths with choices keyed deterministically
/// by (group, switch): one copy per shared link, branching as low as
/// possible. Receivers unreachable under the current routes (a fault
/// cut them off) are skipped and the tree marked partial — it covers
/// the reachable membership until a reroute reaches the rest.
pub(super) fn build_tree(
    topo: &Topology,
    gid: GroupId,
    sender: NodeId,
    receivers: &[NodeId],
) -> Tree {
    let mut table: BTreeMap<NodeId, Vec<u16>> = BTreeMap::new();
    let mut tree = Tree::default();
    for &r in receivers {
        if topo.try_next_ports_on(0, sender, r).is_empty() {
            tree.partial = true;
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
    for (node, ports) in table {
        let start = tree.ports.len() as u16;
        tree.ports.extend(ports);
        tree.hops.push((node, start, tree.ports.len() as u16));
    }
    tree
}
