//! Network topology: nodes, links, and layered multipath routing tables.
//!
//! The topology is a general undirected graph of hosts and switches with
//! per-link rate and propagation delay. Routing is organised as
//! FatPaths-style **path-diversity layers** (see [`RoutingPolicy`]):
//! layer 0 always carries the classic shortest-path/ECMP routes, and
//! each additional layer draws a seeded random "preferred" half of the
//! inter-switch links and routes on weighted shortest paths where a
//! non-preferred link costs 2 hops. That steers every layer onto a
//! near-disjoint link subset — the path diversity low-diameter random
//! graphs (Jellyfish) structurally lack at minimal length — while
//! keeping each layer loop-free (the weighted distance is a strictly
//! decreasing potential) and bounding stretch at 2× the minimal hop
//! count. Every layer has its own per-(switch, destination rack) route
//! table and distance table; the forwarding policy picks a layer per
//! flow and then a port within the layer at run time.
//!
//! A topology is routed under the policy it was made with — minimal
//! for [`Topology::new`], the given one for a generator — and its
//! graph is final once routed: the first route computation freezes the
//! ports and draws the layer weights, and [`Topology::add_node`] /
//! [`Topology::connect`] refuse edits from then on.
//!
//! Routing is **re-runnable** on that fixed graph:
//! [`Topology::compute_routes_masked`] recomputes every layer against a
//! [`FaultMask`] from scratch, and [`Topology::repair_routes`] heals
//! each layer *incrementally* after a fault-mask delta — failed hops
//! excised, restored hops joined in place by one rule — which
//! is how the simulator reroutes around mid-run link and switch
//! failures without paying a full recompute.
//!
//! Three generators are provided: [`Topology::fat_tree`] (the paper's
//! evaluation fabric, k = 10 → 250 hosts), [`Topology::leaf_spine`]
//! (two-tier, optionally oversubscribed uplinks), and
//! [`Topology::jellyfish`] (seeded random regular graph of switches, as
//! in Singla et al.'s Jellyfish).

use crate::fault::FaultMask;
use crate::packet::FlowId;
use crate::sim::{ecmp_choice, layer_choice};

mod build;
mod repair;
mod routes;
#[cfg(test)]
mod tests;

pub use repair::RouteRepair;
pub use routes::NextPorts;
use routes::{LayerTables, SwitchIndex, UNREACHABLE};

/// Index of a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (runs a transport agent, has exactly one port).
    Host,
    /// A switch (forwards packets, owns port queues).
    Switch,
}

/// One directed attachment point of a node.
#[derive(Debug, Clone, Copy)]
pub struct Port {
    /// The node on the other end of the link.
    pub peer: NodeId,
    /// Port index on the peer that points back at us.
    pub peer_port: u16,
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay in nanoseconds.
    pub prop_ns: u64,
}

/// One undirected link in the construction-time edge log; frozen into
/// the flat [`Port`] arena by [`Topology::freeze_ports`].
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    a: u32,
    b: u32,
    rate_bps: u64,
    prop_ns: u64,
}

/// The layered path-diversity policy [`Topology::compute_routes`]
/// builds routes for — the FatPaths idea as a first-class, repairable
/// data structure instead of a boolean.
///
/// Layer 0 is always the classic minimal (shortest-path/ECMP) route
/// set. Each layer `ℓ ≥ 1` draws a seeded random half of the
/// inter-switch links as *preferred* and routes on weighted shortest
/// paths where a non-preferred link costs 2: paths stay on the
/// preferred subset when they can and detour through non-preferred
/// links only when they must, so different layers expose near-disjoint
/// paths. Because every weight is in `{1, 2}`, a layer's weighted
/// distance is at most twice the minimal hop count, and any walk over a
/// layer's advertised ports takes at most `2 × minimal hops` — the
/// FatPaths length bound, with loop freedom from the strictly
/// decreasing weighted-distance potential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingPolicy {
    /// Number of layers (`1..=MAX_LAYERS`); 1 = plain minimal routing.
    pub layers: usize,
    /// Seed for the per-layer preferred-link draws (layer 0 ignores it).
    pub seed: u64,
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        Self::minimal()
    }
}

impl RoutingPolicy {
    /// Hard cap on the layer count (per-layer fabric counters are
    /// fixed-size arrays of this length).
    pub const MAX_LAYERS: usize = 8;

    /// Single-layer minimal routing (classic ECMP/BFS multipath).
    pub fn minimal() -> Self {
        Self { layers: 1, seed: 0 }
    }

    /// A layered policy: layer 0 minimal plus `layers - 1` seeded
    /// random-preference layers.
    pub fn layered(layers: usize, seed: u64) -> Self {
        assert!(
            (1..=Self::MAX_LAYERS).contains(&layers),
            "layer count must be in 1..={}",
            Self::MAX_LAYERS
        );
        Self { layers, seed }
    }
}

/// Where one (single-homed) host hangs off the switch fabric — all a
/// route lookup needs to turn a destination host into a table column
/// and an arithmetic last hop.
#[derive(Debug, Clone, Copy)]
struct HostAccess {
    /// The host's access switch (ToR): its single port's peer.
    tor: u32,
    /// The ToR's column in every layer's arenas.
    col: u32,
    /// The ToR's port facing the host — the last hop.
    port: u16,
    /// The host or its access link is down under `routes_mask` (never
    /// the live mask: during a convergence window stale routes keep
    /// forwarding towards the ToR, exactly like any stale table entry).
    /// A cut host is unreachable from every node on every layer.
    cut: bool,
}

/// A network graph plus layered routing tables, both CSR-flattened
/// (arena layout: see `topology::routes`).
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    /// Construction-time edge log; the source of truth the flat port
    /// arena is frozen from by the first routing.
    edges: Vec<EdgeRec>,
    /// Per-node degree, maintained by [`Topology::connect`].
    degree: Vec<u32>,
    /// Flat port arena: node `n`'s ports are
    /// `ports[port_off[n] .. port_off[n + 1]]`.
    ports: Vec<Port>,
    /// CSR prefix offsets into `ports` (`node_count + 1` entries once
    /// frozen, `[0]` before).
    port_off: Vec<u32>,
    hosts: Vec<NodeId>,
    host_index: Vec<Option<u32>>, // NodeId -> index into `hosts`
    /// Per-host attachment record, indexed like `hosts`; built (and
    /// single-homing enforced) by the freeze.
    access: Vec<HostAccess>,
    /// The access switches (switches with at least one host), in column
    /// order: `col_root[c]` is the switch column `c` routes towards.
    col_root: Vec<NodeId>,
    /// The switch rows and fabric-port cell offsets every layer's
    /// arenas are keyed by; built by the freeze.
    switches: SwitchIndex,
    /// One routing table set per layer (`layers[0]` = minimal routes).
    /// Empty until [`Topology::compute_routes`].
    layers: Vec<LayerTables>,
    /// Per-layer link-weight arena indexed by global port id
    /// (`port_off[n] + p`): 1 or 2; layer 0 and host links are always 1.
    /// Derived deterministically from the policy seed and link identity.
    weights: Vec<Vec<u8>>,
    /// The routing policy, fixed when the topology is made.
    policy: RoutingPolicy,
    /// Diagnostic: how many times the per-layer weight arenas were
    /// built — see [`Topology::weight_builds`].
    weight_builds: u64,
    /// The fault mask the current layer tables were computed against —
    /// the baseline [`Topology::repair_routes`] diffs new masks against.
    routes_mask: FaultMask,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// An empty topology, routed under minimal routing.
    pub fn new() -> Self {
        Self::with_policy(RoutingPolicy::minimal())
    }

    /// An empty topology to be routed under `policy` — the one place a
    /// policy enters, so the layer count is checked here.
    pub(crate) fn with_policy(policy: RoutingPolicy) -> Self {
        assert!(
            (1..=RoutingPolicy::MAX_LAYERS).contains(&policy.layers),
            "layer count must be in 1..={}",
            RoutingPolicy::MAX_LAYERS
        );
        Self {
            kinds: Vec::new(),
            edges: Vec::new(),
            degree: Vec::new(),
            ports: Vec::new(),
            port_off: vec![0],
            hosts: Vec::new(),
            host_index: Vec::new(),
            access: Vec::new(),
            col_root: Vec::new(),
            switches: SwitchIndex::empty(),
            layers: Vec::new(),
            weights: Vec::new(),
            policy,
            weight_builds: 0,
            routes_mask: FaultMask::new(),
        }
    }

    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// item 12).
    pub fn set_parallelism(&mut self, _parallelism: usize) {}

    /// Diagnostic counter: how many times the per-layer link-weight
    /// arenas were built. Weight tables depend only on (policy, graph),
    /// both final once routed, so they are built by the first routing
    /// and reused by every masked recompute and repair; tests gate on
    /// this counter staying at 1.
    pub fn weight_builds(&self) -> u64 {
        self.weight_builds
    }

    /// Whether routes were computed: the graph is final and the layer
    /// tables and weight arenas exist.
    pub(crate) fn routed(&self) -> bool {
        !self.layers.is_empty()
    }

    /// The fault mask the current layer tables were computed against
    /// (empty for the healthy fabric).
    pub(crate) fn routes_mask(&self) -> &FaultMask {
        &self.routes_mask
    }

    /// Number of layers the current route tables carry (0 before the
    /// first [`Topology::compute_routes`]).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Add a node of the given kind, returning its id.
    ///
    /// # Panics
    /// Panics once routes were computed: the graph is final then.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        assert!(!self.routed(), "the graph is final once routed");
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.degree.push(0);
        self.host_index.push(None);
        if kind == NodeKind::Host {
            self.host_index[id.0 as usize] = Some(self.hosts.len() as u32);
            self.hosts.push(id);
        }
        id
    }

    /// Connect two nodes with a bidirectional link. Port indices are
    /// assigned in call order (the a-side port first), exactly as the
    /// flat arena will record them at the freeze.
    ///
    /// # Panics
    /// Panics on a self-link, and once routes were computed: the graph
    /// is final then.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate_bps: u64, prop_ns: u64) {
        assert!(!self.routed(), "the graph is final once routed");
        assert_ne!(a, b, "self-links are not allowed");
        self.edges.push(EdgeRec {
            a: a.0,
            b: b.0,
            rate_bps,
            prop_ns,
        });
        self.degree[a.0 as usize] += 1;
        self.degree[b.0 as usize] += 1;
    }

    /// Freeze the edge log into the flat CSR port arena. The first
    /// routing calls this once, after which the graph is final; port
    /// accessors are valid from then on.
    fn freeze_ports(&mut self) {
        let n = self.kinds.len();
        self.port_off.clear();
        self.port_off.reserve(n + 1);
        let mut acc = 0u32;
        self.port_off.push(0);
        for &d in &self.degree {
            acc += d;
            self.port_off.push(acc);
        }
        // Every directed slot is written exactly once below; the filler
        // never survives the loop.
        self.ports.clear();
        self.ports.resize(
            acc as usize,
            Port {
                peer: NodeId(0),
                peer_port: 0,
                rate_bps: 0,
                prop_ns: 0,
            },
        );
        let mut cursor: Vec<u32> = self.port_off[..n].to_vec();
        for e in &self.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            let pa = (cursor[a] - self.port_off[a]) as u16;
            let pb = (cursor[b] - self.port_off[b]) as u16;
            self.ports[cursor[a] as usize] = Port {
                peer: NodeId(e.b),
                peer_port: pb,
                rate_bps: e.rate_bps,
                prop_ns: e.prop_ns,
            };
            self.ports[cursor[b] as usize] = Port {
                peer: NodeId(e.a),
                peer_port: pa,
                rate_bps: e.rate_bps,
                prop_ns: e.prop_ns,
            };
            cursor[a] += 1;
            cursor[b] += 1;
        }
        self.index_access();
    }

    /// Rebuild the per-host attachment records, the access-switch
    /// column list and the switch rows from the frozen port arena,
    /// enforcing what the route tables (and the simulator's "host NIC
    /// is port 0") rely on: every host has exactly one port and its
    /// peer is a switch.
    fn index_access(&mut self) {
        self.switches = SwitchIndex::build(&self.kinds, &self.ports, &self.port_off);
        let mut col_of = vec![u32::MAX; self.kinds.len()];
        self.col_root.clear();
        self.access.clear();
        for &h in &self.hosts {
            let ports = self.node_ports(h);
            assert!(
                ports.len() == 1,
                "host {} has {} ports; hosts are single-homed (exactly one)",
                h.0,
                ports.len()
            );
            let up = ports[0];
            assert!(
                self.kinds[up.peer.0 as usize] == NodeKind::Switch,
                "host {} is attached to non-switch node {}",
                h.0,
                up.peer.0
            );
            let col = &mut col_of[up.peer.0 as usize];
            if *col == u32::MAX {
                *col = self.col_root.len() as u32;
                self.col_root.push(up.peer);
            }
            self.access.push(HostAccess {
                tor: up.peer.0,
                col: *col,
                port: up.peer_port,
                cut: false,
            });
        }
    }

    /// Whether the port arena covers every node: true from the first
    /// routing on (and for a topology with no node).
    fn frozen(&self) -> bool {
        self.port_off.len() == self.kinds.len() + 1
    }

    /// Node kind accessor.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.0 as usize]
    }

    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// All hosts, in id order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Dense index of a host (panics for switches).
    #[inline]
    pub fn host_index(&self, n: NodeId) -> usize {
        self.host_index[n.0 as usize].expect("node is not a host") as usize
    }

    /// Ports of a node.
    #[inline]
    pub fn node_ports(&self, n: NodeId) -> &[Port] {
        debug_assert!(self.frozen(), "no ports before the first compute_routes()");
        let i = n.0 as usize;
        &self.ports[self.port_off[i] as usize..self.port_off[i + 1] as usize]
    }

    /// A specific port.
    #[inline]
    pub fn port(&self, n: NodeId, p: u16) -> &Port {
        debug_assert!(self.frozen(), "no ports before the first compute_routes()");
        debug_assert!(
            (p as u32) < self.port_off[n.0 as usize + 1] - self.port_off[n.0 as usize],
            "port {} out of range for node {}",
            p,
            n.0
        );
        &self.ports[self.port_off[n.0 as usize] as usize + p as usize]
    }

    /// Advertised layer-0 (minimal) ports of `node` towards `dst` (a
    /// host).
    ///
    /// # Panics
    /// Panics if routes were not computed or `dst` is unreachable —
    /// both are configuration bugs, not runtime conditions.
    pub fn next_ports(&self, node: NodeId, dst: NodeId) -> NextPorts<'_> {
        let next = self.try_next_ports_on(0, node, dst);
        assert!(
            !next.is_empty(),
            "no route from node {} to host {} (routes computed?)",
            node.0,
            dst.0
        );
        next
    }

    /// Advertised ports of `node` towards `dst` within one routing
    /// layer, empty when the layer has no path (the fault mask cut the
    /// layer off — the simulator's layer re-assignment moves flows away
    /// from such layers).
    #[inline]
    pub fn try_next_ports_on(&self, layer: usize, node: NodeId, dst: NodeId) -> NextPorts<'_> {
        self.try_next_ports_at(layer, node, self.host_index(dst))
    }

    /// [`Topology::try_next_ports_on`] with the destination given as a
    /// dense host index — the forwarding hot path resolves the index
    /// once per packet and reuses it across layer-liveness probes and
    /// the final port pick.
    /// Everything host-shaped is resolved here from the per-host access
    /// records (layout: see `topology::routes`); the tables know switches only.
    /// One load of the node's packed switch-row word tells a host from
    /// a switch and places the switch in the arenas.
    #[inline]
    pub fn try_next_ports_at(&self, layer: usize, node: NodeId, dst_index: usize) -> NextPorts<'_> {
        let tab = &self.layers[layer];
        let ix = &self.switches;
        let dst = &self.access[dst_index];
        let at = node.0 as usize;
        if dst.cut {
            return NextPorts::EMPTY;
        }
        let col = dst.col as usize;
        if ix.rows[at].is_host() {
            let src_index = self.host_index(node);
            let src = &self.access[src_index];
            let routed = !src.cut && src_index != dst_index;
            return if routed && tab.dist_to(ix, src.tor as usize, col) != UNREACHABLE {
                NextPorts::one(&0)
            } else {
                NextPorts::EMPTY
            };
        }
        if node.0 == dst.tor {
            // The root's distance is 0 iff the ToR itself is up.
            return if tab.dist_to(ix, at, col) == 0 {
                NextPorts::one(&dst.port)
            } else {
                NextPorts::EMPTY
            };
        }
        tab.next_ports(ix, at, col)
    }

    /// The nodes a per-flow-ECMP packet of `flow` crosses from `src` to
    /// `dst` on the current tables, both ends included: the layer the
    /// flow hash assigns, then at every hop the equal-cost port the
    /// (flow, node) hash picks — the choices forwarding itself makes
    /// while the layer is live. Experiment code uses it to aim a fault
    /// at the switch pinned traffic actually crosses.
    ///
    /// # Panics
    /// Panics if `dst` is unreachable on the flow's layer or the walk
    /// exceeds 64 hops.
    pub fn pinned_path(&self, flow: FlowId, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let layer = layer_choice(flow, self.layer_count());
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            let choices = self.try_next_ports_on(layer, at, dst);
            at = self
                .port(at, choices[ecmp_choice(flow, at, choices.len())])
                .peer;
            path.push(at);
            assert!(path.len() <= 64, "ECMP walk exceeded 64 hops");
        }
        path
    }

    /// A layer's weighted distance from `node` to `dst` (`None` =
    /// unreachable under the mask the routes were computed with). On
    /// layer 0 the weighted distance is the plain hop count. Derived:
    /// the switch-to-ToR distance plus one access link per host end
    /// (host links weigh 1 on every layer).
    pub fn layer_distance(&self, layer: usize, node: NodeId, dst: NodeId) -> Option<u32> {
        if node == dst {
            return (!self.routes_mask.node_is_down(dst)).then_some(0);
        }
        let to = &self.access[self.host_index(dst)];
        // A host end starts at its ToR, one access link further out.
        let (from, access_links, cut) = match self.host_index[node.0 as usize] {
            Some(src) => {
                let src = &self.access[src as usize];
                (src.tor, 2, src.cut || to.cut)
            }
            None => (node.0, 1, to.cut),
        };
        let d = self.layers[layer].dist_to(&self.switches, from as usize, to.col as usize);
        (!cut && d != UNREACHABLE).then(|| u32::from(d) + access_links)
    }

    /// Hop count of the shortest path between two hosts (layer 0's
    /// weighted distance is the plain hop count).
    ///
    /// # Panics
    /// Panics if `b` is unreachable from `a`.
    pub fn path_hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.layer_distance(0, a, b)
            .unwrap_or_else(|| panic!("no route from host {} to host {}", a.0, b.0))
    }

    /// The edge switch a host hangs off (host's single uplink peer).
    pub fn edge_switch(&self, host: NodeId) -> NodeId {
        NodeId(self.access[self.host_index(host)].tor)
    }

    /// Whether two hosts share an edge switch ("same rack"); used for
    /// the paper's replica placement rule (replicas outside the client's
    /// rack).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_switch(a) == self.edge_switch(b)
    }

    /// Switches with no directly attached hosts — the "core layer" in a
    /// hierarchical fabric (fat-tree core, leaf-spine spines). Fault
    /// scenarios use this to aim failures at pure transit switches,
    /// whose loss degrades capacity without isolating any host.
    pub fn core_switches(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&n| {
                self.kind(n) == NodeKind::Switch
                    && self
                        .node_ports(n)
                        .iter()
                        .all(|p| self.kind(p.peer) == NodeKind::Switch)
            })
            .collect()
    }

    /// Every undirected switch–switch link once, as its lower node and
    /// that node's port, in ascending order — the one enumeration fault
    /// victims, hotspots and layer weights draw from (so a seeded draw
    /// over it is fabric-stable).
    pub fn switch_links(&self) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Switch)
            .flat_map(move |n| {
                self.node_ports(n)
                    .iter()
                    .enumerate()
                    .filter(move |(_, p)| self.kind(p.peer) == NodeKind::Switch && p.peer.0 > n.0)
                    .map(move |(pi, _)| (n, pi as u16))
            })
    }
}

/// Whether a host is unreachable by its own doing under `mask`: the
/// host or its (single, port 0) access link is down. A dead ToR needs
/// no bit — its column is empty.
fn host_cut(mask: &FaultMask, host: NodeId) -> bool {
    mask.node_is_down(host) || mask.link_is_down(host, 0)
}
