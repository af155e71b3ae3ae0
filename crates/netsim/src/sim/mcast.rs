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

/// Whether any hop recorded in a multicast tree's forwarding table
/// is unusable under the live fault mask (dead node, dead link, or
/// dead far end).
pub(super) fn group_crosses_fault(topo: &Topology, mask: &FaultMask, group: &Group) -> bool {
    group.tree.hops().any(|(node, ports)| {
        mask.node_is_down(node) || ports.iter().any(|&p| !mask.port_is_up(topo, node, p))
    })
}

/// Union of per-receiver paths with choices keyed deterministically
/// by (group, switch): one copy per shared link, branching as low as
/// possible. Receivers unreachable under the current routes (a fault
/// cut them off) are skipped — during repair the tree covers the
/// reachable membership.
pub(super) fn build_tree(
    topo: &Topology,
    gid: GroupId,
    sender: NodeId,
    receivers: &[NodeId],
) -> Tree {
    let mut table: BTreeMap<NodeId, Vec<u16>> = BTreeMap::new();
    for &r in receivers {
        if topo.try_next_ports_on(0, sender, r).is_empty() {
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
