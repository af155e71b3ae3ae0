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
//! Routing is **re-runnable**: [`Topology::compute_routes_masked`]
//! recomputes every layer against a live [`FaultMask`], and
//! [`Topology::repair_routes`] heals each layer *incrementally* after a
//! fault-mask delta — failures by dead-entry surgery, restorations by
//! bounded restore surgery — which is how the simulator reroutes around
//! mid-run link and switch failures without paying a full recompute.
//!
//! # Memory layout: CSR arenas
//!
//! Both the graph and the routing tables live in contiguous CSR-style
//! arenas instead of nested `Vec`s, so a forwarding decision is flat
//! arithmetic into three big arrays rather than three dependent pointer
//! hops, and repair surgery is `memmove`s inside fixed-capacity cells:
//!
//! - **Adjacency**: one flat `ports: Vec<Port>` plus a prefix-offset
//!   table `port_off: Vec<u32>` (length `nodes + 1`); node `n`'s ports
//!   are `ports[port_off[n] .. port_off[n+1]]` and `port_off[n] + p` is
//!   the *global port id* of `(n, p)`. The graph is built through an
//!   edge log and frozen into the arena by the first route computation.
//! - **Switch rows** (shared by all layers): every freeze numbers the
//!   `S` switches `0..S` in id order and gives each a *row*; hosts get
//!   none. A switch's *fabric degree* counts its ports whose peer is a
//!   switch, and `cell_off[row]` (`S + 1` entries) is the prefix over
//!   those degrees, `P_f = cell_off[S]` fabric ports in all. One packed
//!   per-node word holds `(row, cell_off[row])`, so a lookup resolves a
//!   node's place in the arenas with a single load.
//! - **Routes** (per layer): hosts are single-homed leaves, so every
//!   host behind one access switch (ToR) shares its routes up to the
//!   last hop. The tables therefore hold one destination column per
//!   **access switch** — never per host — and rows for switches only.
//!   One flat `buf: Vec<u16>` holds a fixed-capacity cell per `(switch,
//!   column)` — capacity the switch's fabric degree, at arena offset
//!   `c·P_f + cell_off[row]` — plus a `len: Vec<u16>` table
//!   (`len[c·S + row]`) giving the occupied prefix. The advertised
//!   ports are that prefix: the node's real port indices, always in
//!   ascending order. Because a cell can never overflow (a switch
//!   advertises distinct fabric ports only), failure excision and
//!   restore surgery shift entries *in place* and never reallocate. The
//!   arenas are column-major — column `c` owns contiguous
//!   `buf[c·P_f..]`/`len[c·S..]` regions — so a column rebuild is a
//!   search over one contiguous slice of each arena. (A lone switch
//!   with hosts only has `P_f = 0`: its columns are zero-width in `buf`
//!   but still one row wide in `len`/`dist`.)
//! - **Distances / weights** (per layer): flat `dist[c·S + row]`
//!   (switch to column root) and a per-layer weight arena indexed by
//!   global port id.
//! - **Hosts** (shared by all layers): one small `access` record per
//!   host — its ToR, the ToR's column, the ToR's port facing it, and a
//!   `cut` bit (host or access link down under the mask the routes were
//!   computed with). A lookup towards a host resolves its record and
//!   answers everything host-shaped arithmetically: the last hop (at
//!   the ToR: the one access port), a host source (port 0 iff its ToR
//!   has a route), the destination itself (nothing), and a cut host
//!   (nothing, anywhere). A host or access-link fault is a bit flip.
//!
//! Three generators are provided: [`Topology::fat_tree`] (the paper's
//! evaluation fabric, k = 10 → 250 hosts), [`Topology::leaf_spine`]
//! (two-tier, optionally oversubscribed uplinks), and
//! [`Topology::jellyfish`] (seeded random regular graph of switches, as
//! in Singla et al.'s Jellyfish).

use crate::fault::FaultMask;
use crate::rng::Pcg32;

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

/// A node's place in the switch-keyed route arenas, packed into one
/// word so a forwarding lookup resolves row and cell base with a single
/// load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SwitchRow {
    /// The switch's row: its index within a column of `len` and `dist`
    /// ([`SwitchRow::HOST`]'s `u32::MAX` for a host, which has none).
    row: u32,
    /// `cell_off[row]`: the base of its cells within a column of `buf`.
    cell: u32,
}

impl SwitchRow {
    /// What a host holds: no row, no cells.
    const HOST: SwitchRow = SwitchRow {
        row: u32::MAX,
        cell: u32::MAX,
    };

    /// Whether this is a host's word (one compare, on the row alone).
    #[inline]
    fn is_host(self) -> bool {
        self.row == Self::HOST.row
    }
}

/// The dense switch index every layer's arenas are keyed by (layout:
/// see the module docs), rebuilt by every freeze.
#[derive(Debug, Clone)]
struct SwitchIndex {
    /// Per node: its [`SwitchRow`] (switches numbered in id order).
    rows: Vec<SwitchRow>,
    /// Prefix over the switches' fabric degrees, by row: `S + 1`
    /// entries, `cell_off[S] = P_f`.
    cell_off: Vec<u32>,
}

impl SwitchIndex {
    /// The index of a graph with no switch.
    fn empty() -> Self {
        Self {
            rows: Vec::new(),
            cell_off: vec![0],
        }
    }

    /// Number the switches of a frozen port arena in id order.
    fn build(kinds: &[NodeKind], ports: &[Port], off: &[u32]) -> Self {
        let is_switch = |n: usize| kinds[n] == NodeKind::Switch;
        let mut ix = Self::empty();
        ix.rows.reserve_exact(kinds.len());
        for n in 0..kinds.len() {
            if !is_switch(n) {
                ix.rows.push(SwitchRow::HOST);
                continue;
            }
            let (row, cell) = (ix.switches(), ix.fabric_ports() as u32);
            let mine = &ports[off[n] as usize..off[n + 1] as usize];
            let fabric_degree = mine.iter().filter(|p| is_switch(p.peer.0 as usize)).count();
            ix.rows.push(SwitchRow {
                row: row as u32,
                cell,
            });
            ix.cell_off.push(cell + fabric_degree as u32);
        }
        ix.cell_off.shrink_to_fit();
        ix
    }

    /// Switch count `S`.
    fn switches(&self) -> usize {
        self.cell_off.len() - 1
    }

    /// Fabric port count `P_f`.
    fn fabric_ports(&self) -> usize {
        self.cell_off[self.switches()] as usize
    }
}

/// One layer's routing state as flat column-major arenas (layout: see
/// the module docs): advertised-port cells and weighted distances, per
/// (switch row, access-switch column), maintained in lockstep by full
/// recomputation and incremental repair alike. Hosts have no row: the
/// last hop is resolved from [`HostAccess`]. A cell's occupied prefix
/// is always in ascending port order (the order full recomputation
/// records), so in-place surgery stays bit-identical to a from-scratch
/// build. Every accessor takes a node id and translates it through the
/// [`SwitchIndex`].
#[derive(Debug, Clone, Default)]
struct LayerTables {
    /// Switch count `S` (column stride of `len` and `dist`).
    n_switches: usize,
    /// Fabric port count `P_f` (column stride of `buf`).
    n_fabric_ports: usize,
    /// Route arena: fixed-capacity advertised-port cells (see above).
    buf: Vec<u16>,
    /// `len[c·S + row]` = occupied prefix of that route cell.
    len: Vec<u16>,
    /// `dist[c·S + row]` = weighted distance from that switch to the
    /// column's root switch under the mask the routes were computed
    /// with (`u32::MAX` = unreachable; the root itself holds 0 iff it
    /// is up). Restore repair uses it to decide in O(degree) per column
    /// whether a restored element can shorten any path.
    dist: Vec<u32>,
}

impl LayerTables {
    /// Index of switch `u`'s entry for column `col` in `len` and `dist`.
    #[inline]
    fn slot(&self, ix: &SwitchIndex, u: usize, col: usize) -> usize {
        let row = ix.rows[u].row as usize;
        debug_assert!(row < self.n_switches, "node {u} has no switch row");
        col * self.n_switches + row
    }

    /// Arena offset and capacity of the route cell for `(u, col)`.
    #[inline]
    fn cell(&self, ix: &SwitchIndex, u: usize, col: usize) -> (usize, usize) {
        let SwitchRow { row, cell } = ix.rows[u];
        let cap = ix.cell_off[row as usize + 1] - cell;
        (col * self.n_fabric_ports + cell as usize, cap as usize)
    }

    /// The advertised ports of `(u, col)`: the cell's occupied prefix.
    #[inline]
    fn advertised(&self, ix: &SwitchIndex, u: usize, col: usize) -> &[u16] {
        let SwitchRow { row, cell } = ix.rows[u];
        let start = col * self.n_fabric_ports + cell as usize;
        let l = self.len[col * self.n_switches + row as usize] as usize;
        &self.buf[start..start + l]
    }

    /// Weighted distance from switch `u` to the root of column `col`.
    #[inline]
    fn dist_to(&self, ix: &SwitchIndex, u: usize, col: usize) -> u32 {
        self.dist[self.slot(ix, u, col)]
    }

    #[inline]
    fn set_dist(&mut self, ix: &SwitchIndex, u: usize, col: usize, d: u32) {
        let i = self.slot(ix, u, col);
        self.dist[i] = d;
    }

    /// Insert `p` into the cell keeping ascending order (no-op when
    /// already advertised). A cell holds distinct fabric port indices
    /// of its switch at capacity the fabric degree, so the shift always
    /// fits.
    fn insert_port(&mut self, ix: &SwitchIndex, u: usize, col: usize, p: u16) {
        let (start, cap) = self.cell(ix, u, col);
        let li = self.slot(ix, u, col);
        let l = self.len[li] as usize;
        if let Err(pos) = self.buf[start..start + l].binary_search(&p) {
            debug_assert!(l < cap, "route cell overflow");
            self.buf
                .copy_within(start + pos..start + l, start + pos + 1);
            self.buf[start + pos] = p;
            self.len[li] = (l + 1) as u16;
        }
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

/// Outcome of an incremental [`Topology::repair_routes`] call —
/// how much of the routing state had to be recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRepair {
    /// The repair fell back to a full [`Topology::compute_routes_masked`]
    /// (routes were never computed under the current policy).
    pub full: bool,
    /// (layer, access-switch) columns rebuilt by a per-column search.
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

/// A network graph plus layered routing tables, both CSR-flattened
/// (see the module docs for the arena layout).
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    /// Construction-time edge log; the source of truth the flat port
    /// arena is (re-)frozen from.
    edges: Vec<EdgeRec>,
    /// Per-node degree, maintained by [`Topology::connect`].
    degree: Vec<u32>,
    /// Flat port arena: node `n`'s ports are
    /// `ports[port_off[n] .. port_off[n + 1]]`.
    ports: Vec<Port>,
    /// CSR prefix offsets into `ports` (`node_count + 1` entries).
    port_off: Vec<u32>,
    /// The edge log changed since the last freeze; port accessors are
    /// invalid until the next [`Topology::freeze_ports`].
    ports_stale: bool,
    hosts: Vec<NodeId>,
    host_index: Vec<Option<u32>>, // NodeId -> index into `hosts`
    /// Per-host attachment record, indexed like `hosts`; rebuilt (and
    /// single-homing enforced) by every freeze.
    access: Vec<HostAccess>,
    /// The access switches (switches with at least one host), in column
    /// order: `col_root[c]` is the switch column `c` routes towards.
    col_root: Vec<NodeId>,
    /// The switch rows and fabric-port cell offsets every layer's
    /// arenas are keyed by; rebuilt by every freeze.
    switches: SwitchIndex,
    /// One routing table set per layer (`layers[0]` = minimal routes).
    /// Empty until [`Topology::compute_routes`].
    layers: Vec<LayerTables>,
    /// Per-layer link-weight arena indexed by global port id
    /// (`port_off[n] + p`): 1 or 2; layer 0 and host links are always 1.
    /// Derived deterministically from the policy seed and link identity.
    weights: Vec<Vec<u8>>,
    policy: RoutingPolicy,
    /// The policy the current layer tables were computed under. When it
    /// differs from `policy` (e.g. [`Topology::set_policy`] changed the
    /// seed without a recompute), [`Topology::repair_routes`] must take
    /// the full fallback — surgery against stale weight tables would
    /// diverge from a fresh [`Topology::compute_routes_masked`].
    routes_policy: Option<RoutingPolicy>,
    /// The policy the cached `weights` arenas were built under (`None`
    /// = stale: the policy changed or the port arena was re-frozen).
    /// Weight tables depend only on (policy, frozen graph) — never the
    /// fault mask — so mid-run masked recomputes reuse them instead of
    /// re-deriving one seeded hash per inter-switch link per layer.
    weights_policy: Option<RoutingPolicy>,
    /// Diagnostic: how many times the per-layer weight arenas were
    /// (re)built — see [`Topology::weight_builds`].
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
    /// An empty topology.
    pub fn new() -> Self {
        Self {
            kinds: Vec::new(),
            edges: Vec::new(),
            degree: Vec::new(),
            ports: Vec::new(),
            port_off: vec![0],
            ports_stale: false,
            hosts: Vec::new(),
            host_index: Vec::new(),
            access: Vec::new(),
            col_root: Vec::new(),
            switches: SwitchIndex::empty(),
            layers: Vec::new(),
            weights: Vec::new(),
            policy: RoutingPolicy::minimal(),
            routes_policy: None,
            weights_policy: None,
            weight_builds: 0,
            routes_mask: FaultMask::new(),
        }
    }

    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// 2(b)).
    pub fn set_parallelism(&mut self, _parallelism: usize) {}

    /// Diagnostic counter: how many times the per-layer link-weight
    /// arenas were (re)built. Weight tables depend only on (policy,
    /// frozen graph) — never the fault mask — so mid-run masked
    /// recomputes and repairs must reuse the cached arenas; tests gate
    /// on this counter staying flat across fault events.
    pub fn weight_builds(&self) -> u64 {
        self.weight_builds
    }

    /// Select the layered routing policy. Takes effect at the next
    /// [`Topology::compute_routes`] / [`Topology::compute_routes_masked`]
    /// call; call one of them afterwards before forwarding.
    pub fn set_policy(&mut self, policy: RoutingPolicy) {
        assert!(
            (1..=RoutingPolicy::MAX_LAYERS).contains(&policy.layers),
            "layer count must be in 1..={}",
            RoutingPolicy::MAX_LAYERS
        );
        self.policy = policy;
    }

    /// The active layered routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of layers the current route tables carry (0 before the
    /// first [`Topology::compute_routes`]).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Add a node of the given kind, returning its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.degree.push(0);
        self.host_index.push(None);
        if kind == NodeKind::Host {
            self.host_index[id.0 as usize] = Some(self.hosts.len() as u32);
            self.hosts.push(id);
        }
        self.ports_stale = true;
        id
    }

    /// Connect two nodes with a bidirectional link. Port indices are
    /// assigned in call order (the a-side port first), exactly as the
    /// flat arena will record them at the next freeze.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate_bps: u64, prop_ns: u64) {
        assert_ne!(a, b, "self-links are not allowed");
        self.edges.push(EdgeRec {
            a: a.0,
            b: b.0,
            rate_bps,
            prop_ns,
        });
        self.degree[a.0 as usize] += 1;
        self.degree[b.0 as usize] += 1;
        self.ports_stale = true;
    }

    /// Freeze the edge log into the flat CSR port arena. Idempotent;
    /// [`Topology::compute_routes_masked`] calls this, so generator
    /// users never need to. Port accessors are only valid between a
    /// freeze and the next graph edit.
    fn freeze_ports(&mut self) {
        if !self.ports_stale {
            return;
        }
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
        self.ports_stale = false;
        // A re-frozen arena may assign different global port ids;
        // cached weight tables are keyed by them and must be rebuilt.
        self.weights_policy = None;
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
        debug_assert!(
            !self.ports_stale,
            "graph edited since the last freeze; call compute_routes() first"
        );
        let i = n.0 as usize;
        &self.ports[self.port_off[i] as usize..self.port_off[i + 1] as usize]
    }

    /// A specific port.
    #[inline]
    pub fn port(&self, n: NodeId, p: u16) -> &Port {
        debug_assert!(
            !self.ports_stale,
            "graph edited since the last freeze; call compute_routes() first"
        );
        debug_assert!(
            (p as u32) < self.port_off[n.0 as usize + 1] - self.port_off[n.0 as usize],
            "port {} out of range for node {}",
            p,
            n.0
        );
        &self.ports[self.port_off[n.0 as usize] as usize + p as usize]
    }

    /// Compute every layer's routing tables on the healthy fabric (must
    /// be called after the graph is final and before forwarding).
    pub fn compute_routes(&mut self) {
        self.compute_routes_masked(&FaultMask::new());
    }

    /// Recompute every layer's routing tables, treating every link and
    /// node in `mask` as absent. Re-runnable at any time; the simulator
    /// calls this when executing fault events mid-run. Destinations that
    /// the mask disconnects simply end up with empty port lists (see
    /// [`Topology::try_next_ports`]).
    ///
    /// The layer arenas are resized in place, so every recompute after
    /// the first reuses the existing allocations instead of cloning or
    /// reallocating nested tables.
    pub fn compute_routes_masked(&mut self, mask: &FaultMask) {
        self.freeze_ports();
        let (s, p_f) = (self.switches.switches(), self.switches.fabric_ports());
        let n_cols = self.col_root.len();
        let n_layers = self.policy.layers;
        self.ensure_weights();
        self.layers.truncate(n_layers);
        self.layers.resize_with(n_layers, LayerTables::default);
        for tab in &mut self.layers {
            tab.n_switches = s;
            tab.n_fabric_ports = p_f;
            tab.buf.resize(p_f * n_cols, 0);
            tab.len.resize(s * n_cols, 0);
            tab.dist.resize(s * n_cols, u32::MAX);
        }
        self.rebuild_columns(mask, None);
        for (a, &h) in self.access.iter_mut().zip(&self.hosts) {
            a.cut = host_cut(mask, h);
        }
        self.routes_policy = Some(self.policy);
        self.routes_mask = mask.clone();
    }

    /// Rebuild route columns against `mask` — all of them, or only the
    /// (layer, column) pairs flagged in `dirty`; full recompute and
    /// repair share this loop. A column is a contiguous slice of each
    /// destination-major arena and is searched with one reused scratch.
    fn rebuild_columns(&mut self, mask: &FaultMask, dirty: Option<&[Vec<bool>]>) {
        let (kinds, ports, port_off) = (&self.kinds, &self.ports, &self.port_off);
        let rows = &self.switches.rows;
        let mut scratch = ColumnScratch::default();
        for (layer, tab) in self.layers.iter_mut().enumerate() {
            // Columns by index, not by chunking `buf`: a fabric with no
            // switch-to-switch port has zero-width `buf` columns that
            // still carry a row of `len`/`dist` (the root's distance 0).
            let (s, p_f) = (tab.n_switches, tab.n_fabric_ports);
            for (col, &root) in self.col_root.iter().enumerate() {
                if dirty.is_none_or(|d| d[layer][col]) {
                    let column = Column {
                        weights: &self.weights[layer],
                        root,
                        buf: &mut tab.buf[col * p_f..][..p_f],
                        len: &mut tab.len[col * s..][..s],
                        dist: &mut tab.dist[col * s..][..s],
                    };
                    compute_column(kinds, ports, port_off, rows, mask, column, &mut scratch);
                }
            }
        }
    }

    /// Rebuild the per-layer link-weight arenas iff the cached ones are
    /// stale — the policy changed, or the port arena was re-frozen
    /// (which may reassign the global port ids the arenas are indexed
    /// by). The tables are a pure function of (policy, frozen graph),
    /// independent of the fault mask, so the common mid-run case —
    /// masked recompute or repair after a fault event — reuses them.
    fn ensure_weights(&mut self) {
        if self.weights_policy == Some(self.policy) {
            return;
        }
        self.weights = (0..self.policy.layers)
            .map(|l| self.layer_weight_table(l))
            .collect();
        self.weights_policy = Some(self.policy);
        self.weight_builds += 1;
    }

    /// One layer's link-weight arena (indexed by global port id): 1
    /// everywhere on layer 0 and on host access links; on layers ≥ 1
    /// each undirected inter-switch link draws weight 1 ("preferred") or
    /// 2 with equal probability from a seeded hash of (policy seed,
    /// layer, link identity) — same policy, same graph ⇒ identical
    /// layers, independent of fault history.
    fn layer_weight_table(&self, layer: usize) -> Vec<u8> {
        let mut w = vec![1u8; self.ports.len()];
        if layer == 0 {
            return w;
        }
        for n in 0..self.node_count() {
            if self.kinds[n] == NodeKind::Host {
                continue;
            }
            let base = self.port_off[n] as usize;
            let deg = self.port_off[n + 1] as usize - base;
            for pi in 0..deg {
                let p = self.ports[base + pi];
                if self.kinds[p.peer.0 as usize] == NodeKind::Host {
                    continue;
                }
                // Canonical direction only; mirror to both.
                if (n as u32, pi as u16) > (p.peer.0, p.peer_port) {
                    continue;
                }
                let link_id = ((n as u64) << 16) | pi as u64;
                let mut rng = Pcg32::new(
                    self.policy.seed
                        ^ (layer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ link_id.wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                let weight = if rng.below(2) == 0 { 1 } else { 2 };
                w[base + pi] = weight;
                w[self.port_off[p.peer.0 as usize] as usize + p.peer_port as usize] = weight;
            }
        }
        w
    }

    /// A layer's weight for the directed link `(node, port)` (1 or 2).
    /// Exposed so tests and benches can rebuild reference route tables
    /// independently of the arena implementation.
    ///
    /// # Panics
    /// Panics if routes were not computed (the weight arenas are built
    /// by [`Topology::compute_routes_masked`]).
    pub fn layer_link_weight(&self, layer: usize, node: NodeId, port: u16) -> u8 {
        self.weights[layer][self.port_off[node.0 as usize] as usize + port as usize]
    }

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
    /// pairs are rebuilt by a per-column search.
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
    /// never computed under the current policy. Every layer repairs
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
        if self.routes_policy != Some(self.policy) || self.weights_policy != Some(self.policy) {
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
                let uu = u as usize;
                for col in 0..n_cols {
                    let li = tab.slot(ix, uu, col);
                    let l = tab.len[li] as usize;
                    if l == 0 {
                        continue;
                    }
                    let (cell, _) = tab.cell(ix, uu, col);
                    if let Some(pos) = tab.buf[cell..cell + l].iter().position(|&x| x == p) {
                        tab.buf.copy_within(cell + pos + 1..cell + l, cell + pos);
                        tab.len[li] = (l - 1) as u16;
                        col_touched[col] = true;
                        col_dirty[col] |= l == 1 && alive;
                    }
                }
            }
            // A dead switch advertises nothing and is unreachable
            // everywhere (full recomputation never visits it); clear its
            // cells and distances wholesale. (Its own column empties by
            // the rule above: its nearest neighbour loses its last port.)
            for &w in &dead_switches {
                for col in 0..n_cols {
                    let li = tab.slot(ix, w.0 as usize, col);
                    tab.len[li] = 0;
                    tab.dist[li] = u32::MAX;
                }
            }
            // Restore surgery, against the post-excision tables.
            // Distances of non-dirty columns are exact here (failure
            // surgery preserves them by the last-port argument), so each
            // restored element can be checked and patched in place;
            // dirty columns are skipped — their rebuild below covers
            // everything at once.
            restore_surgery_layer(
                &self.kinds,
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
        self.rebuild_columns(mask, Some(&dirty_cols));
        self.routes_mask = mask.clone();
        RouteRepair {
            full: false,
            dests_rebuilt: dirty_total,
            dests_touched: touched_total,
            restored,
        }
    }

    /// Advertised layer-0 (minimal) ports of `node` towards `dst` (a
    /// host).
    ///
    /// # Panics
    /// Panics if routes were not computed or `dst` is unreachable —
    /// both are configuration bugs, not runtime conditions.
    pub fn next_ports(&self, node: NodeId, dst: NodeId) -> &[u16] {
        let next = self.try_next_ports(node, dst);
        assert!(
            !next.is_empty(),
            "no route from node {} to host {} (routes computed?)",
            node.0,
            dst.0
        );
        next
    }

    /// Advertised layer-0 (minimal) ports of `node` towards `dst`,
    /// empty when `dst` is unreachable under the mask the routes were
    /// computed with. The simulator uses this to drop (rather than
    /// panic on) packets whose destination a fault has disconnected.
    pub fn try_next_ports(&self, node: NodeId, dst: NodeId) -> &[u16] {
        self.try_next_ports_on(0, node, dst)
    }

    /// Advertised ports of `node` towards `dst` within one routing
    /// layer, empty when the layer has no path (the fault mask cut the
    /// layer off — the simulator's layer re-assignment moves flows away
    /// from such layers).
    #[inline]
    pub fn try_next_ports_on(&self, layer: usize, node: NodeId, dst: NodeId) -> &[u16] {
        self.try_next_ports_at(layer, node, self.host_index(dst))
    }

    /// [`Topology::try_next_ports_on`] with the destination given as a
    /// dense host index — the forwarding hot path resolves the index
    /// once per packet and reuses it across layer-liveness probes and
    /// the final port pick.
    /// Everything host-shaped is resolved here from the per-host access
    /// records (see the module docs); the tables know switches only.
    /// One load of the node's packed switch-row word tells a host from
    /// a switch and places the switch in the arenas.
    #[inline]
    pub fn try_next_ports_at(&self, layer: usize, node: NodeId, dst_index: usize) -> &[u16] {
        let tab = &self.layers[layer];
        let ix = &self.switches;
        let dst = &self.access[dst_index];
        let at = node.0 as usize;
        if dst.cut {
            return &[];
        }
        let col = dst.col as usize;
        if ix.rows[at].is_host() {
            let src_index = self.host_index(node);
            let src = &self.access[src_index];
            let routed = !src.cut && src_index != dst_index;
            return if routed && tab.dist_to(ix, src.tor as usize, col) != u32::MAX {
                &[0]
            } else {
                &[]
            };
        }
        if node.0 == dst.tor {
            // The root's distance is 0 iff the ToR itself is up.
            return if tab.dist_to(ix, at, col) == 0 {
                std::slice::from_ref(&dst.port)
            } else {
                &[]
            };
        }
        tab.advertised(ix, at, col)
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
        (!cut && d != u32::MAX).then(|| d + access_links)
    }

    /// Bytes held by the route tables: every layer's `buf`/`len`/`dist`
    /// arena capacity plus the per-host access records, the column list
    /// and the switch index — the number that decides how large a
    /// fabric fits.
    pub fn route_table_bytes(&self) -> usize {
        use std::mem::size_of;
        let arenas: usize = self
            .layers
            .iter()
            .map(|t| {
                (t.buf.capacity() + t.len.capacity()) * size_of::<u16>()
                    + t.dist.capacity() * size_of::<u32>()
            })
            .sum();
        arenas
            + self.access.capacity() * size_of::<HostAccess>()
            + self.col_root.capacity() * size_of::<NodeId>()
            + self.switches.rows.capacity() * size_of::<SwitchRow>()
            + self.switches.cell_off.capacity() * size_of::<u32>()
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

    /// Structural invariants of the CSR arenas, for tests and debugging:
    /// offset monotonicity, port-arena symmetry, the switch index (rows
    /// a bijection from the switches onto `0..S`, hosts without one,
    /// each cell's capacity its switch's fabric degree), cell-capacity
    /// bounds, and advertised-port sanity (strictly ascending, in range,
    /// no dangling indices). Panics on the first violation.
    pub fn check_csr_invariants(&self) {
        let n = self.node_count();
        assert!(!self.ports_stale, "graph edited since the last freeze");
        assert_eq!(self.port_off.len(), n + 1, "offset table length");
        assert_eq!(self.port_off[0], 0, "offsets start at 0");
        for i in 0..n {
            assert!(
                self.port_off[i] <= self.port_off[i + 1],
                "offsets must be monotone at node {i}"
            );
        }
        assert_eq!(
            *self.port_off.last().unwrap() as usize,
            self.ports.len(),
            "offsets must cover the port arena"
        );
        for u in 0..n as u32 {
            for (pi, p) in self.node_ports(NodeId(u)).iter().enumerate() {
                let back = self.port(p.peer, p.peer_port);
                assert_eq!(back.peer, NodeId(u), "port symmetry (peer)");
                assert_eq!(back.peer_port as usize, pi, "port symmetry (index)");
            }
        }
        assert_eq!(self.access.len(), self.hosts.len(), "one record per host");
        for (a, &h) in self.access.iter().zip(&self.hosts) {
            let down = self.port(NodeId(a.tor), a.port);
            assert_eq!(down.peer, h, "access port of host {} points elsewhere", h.0);
            assert_eq!(
                self.col_root[a.col as usize].0, a.tor,
                "host {} column",
                h.0
            );
        }
        let ix = &self.switches;
        let s = ix.switches();
        assert_eq!(ix.rows.len(), n, "one switch-row word per node");
        assert_eq!(ix.cell_off[0], 0, "cell offsets start at 0");
        let mut row_owner = vec![None; s];
        for (u, &sr) in ix.rows.iter().enumerate() {
            if self.kinds[u] == NodeKind::Host {
                assert_eq!(sr, SwitchRow::HOST, "host {u} holds a switch row");
                continue;
            }
            let r = sr.row as usize;
            assert!(r < s, "switch {u} has row {r} outside 0..{s}");
            assert_eq!(row_owner[r].replace(u), None, "row {r} taken twice");
            assert_eq!(sr.cell, ix.cell_off[r], "switch {u} cell base");
            let fabric_degree = self
                .node_ports(NodeId(u as u32))
                .iter()
                .filter(|p| self.kinds[p.peer.0 as usize] == NodeKind::Switch)
                .count() as u32;
            assert_eq!(
                ix.cell_off[r + 1],
                sr.cell + fabric_degree,
                "switch {u} cell capacity is its fabric degree"
            );
        }
        assert!(row_owner.iter().all(Option::is_some), "rows cover 0..{s}");
        let p_f = ix.fabric_ports();
        let n_cols = self.col_root.len();
        for (layer, tab) in self.layers.iter().enumerate() {
            assert_eq!(tab.n_switches, s, "layer {layer} row stride");
            assert_eq!(tab.n_fabric_ports, p_f, "layer {layer} cell stride");
            assert_eq!(tab.buf.len(), p_f * n_cols, "arena size");
            assert_eq!(tab.len.len(), s * n_cols, "len table size");
            assert_eq!(tab.dist.len(), s * n_cols, "dist table size");
            for &u in row_owner.iter().flatten() {
                let ports = self.node_ports(NodeId(u as u32));
                for col in 0..n_cols {
                    let cell = tab.advertised(ix, u, col);
                    let (_, cap) = tab.cell(ix, u, col);
                    assert!(
                        cell.len() <= cap,
                        "layer {layer} cell ({u}, {col}) overflows its capacity"
                    );
                    for w in cell.windows(2) {
                        assert!(w[0] < w[1], "layer {layer} cell ({u}, {col}) not ascending");
                    }
                    for &p in cell {
                        assert!(
                            (p as usize) < ports.len(),
                            "layer {layer} cell ({u}, {col}) dangles port {p}"
                        );
                        assert!(
                            self.kinds[ports[p as usize].peer.0 as usize] == NodeKind::Switch,
                            "layer {layer} cell ({u}, {col}) advertises a host port"
                        );
                    }
                }
            }
        }
    }

    /// Build a k-ary fat-tree (k even): k pods of (k/2 edge + k/2
    /// aggregation) switches, (k/2)² core switches, k²/4 hosts per pod
    /// wait — k/2 hosts per edge switch, so k³/4 hosts total. All links
    /// share `rate_bps`/`prop_ns` (the paper: 1 Gbps, 10 µs).
    // Index loops mirror the fat-tree's (pod, column) coordinate system;
    // iterator chains over the nested vecs obscure the symmetry.
    #[allow(clippy::needless_range_loop)]
    pub fn fat_tree(k: usize, rate_bps: u64, prop_ns: u64) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree requires even k >= 2"
        );
        let half = k / 2;
        let mut t = Topology::new();

        // Hosts and edge/agg switches, pod by pod.
        let mut edges = vec![vec![NodeId(0); half]; k];
        let mut aggs = vec![vec![NodeId(0); half]; k];
        for pod in 0..k {
            for e in 0..half {
                let edge = t.add_node(NodeKind::Switch);
                edges[pod][e] = edge;
                for _ in 0..half {
                    let host = t.add_node(NodeKind::Host);
                    t.connect(host, edge, rate_bps, prop_ns);
                }
            }
            for a in 0..half {
                aggs[pod][a] = t.add_node(NodeKind::Switch);
            }
            for e in 0..half {
                for a in 0..half {
                    t.connect(edges[pod][e], aggs[pod][a], rate_bps, prop_ns);
                }
            }
        }
        // Core layer: group g serves aggregation index g of every pod.
        for g in 0..half {
            for c in 0..half {
                let core = t.add_node(NodeKind::Switch);
                let _ = c;
                for pod in 0..k {
                    t.connect(aggs[pod][g], core, rate_bps, prop_ns);
                }
            }
        }
        t.compute_routes();
        t
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

    /// Whether two hosts share a coarse shared-risk group: the same
    /// rack, or edge switches with a common switch neighbour — on a
    /// fat-tree that is "same pod" (one aggregation switch serves both),
    /// the blast radius of a single aggregation failure. Shared-risk-
    /// aware replica placement (`workload::scenario`) uses this to
    /// spread replica sets so no single agg/core event can strand more
    /// than one of them; fabrics where every pair shares risk (e.g. a
    /// two-tier leaf–spine, where all leaves see all spines) simply fall
    /// back to the rack rule.
    pub fn shared_risk(&self, a: NodeId, b: NodeId) -> bool {
        let (ea, eb) = (self.edge_switch(a), self.edge_switch(b));
        if ea == eb {
            return true;
        }
        self.node_ports(ea).iter().any(|p| {
            self.kind(p.peer) == NodeKind::Switch
                && self.node_ports(eb).iter().any(|q| q.peer == p.peer)
        })
    }

    /// One-way store-and-forward delay of a `bytes`-sized packet from
    /// `from` to `to`, walking the first advertised (minimal) path and
    /// summing each traversed link's own serialization and propagation
    /// delay — correct on heterogeneous fabrics (e.g. oversubscribed
    /// leaf–spine uplinks), where no single link speed describes a path.
    pub fn path_delay_ns(&self, from: NodeId, to: NodeId, bytes: u32) -> u64 {
        let mut total = 0u64;
        let mut at = from;
        let mut hops = 0u32;
        while at != to {
            let p = self.port(at, self.next_ports(at, to)[0]);
            total += crate::time::serialization_ns(bytes, p.rate_bps) + p.prop_ns;
            at = p.peer;
            hops += 1;
            assert!(hops < 256, "path longer than 256 hops; routing loop?");
        }
        total
    }

    /// Base round-trip time between two hosts for a given packet size:
    /// the actual forward path walked link by link with a data-size
    /// packet, plus the return path with a header-size packet. A
    /// convenience for transports sizing their initial window to one BDP.
    pub fn base_rtt_ns(&self, a: NodeId, b: NodeId, data_bytes: u32, ctrl_bytes: u32) -> u64 {
        self.path_delay_ns(a, b, data_bytes) + self.path_delay_ns(b, a, ctrl_bytes)
    }

    /// Build a two-tier leaf–spine fabric: `leaves` leaf switches with
    /// `hosts_per_leaf` hosts each, every leaf connected to every one of
    /// `spines` spine switches. Host links run at `rate_bps`; each
    /// uplink runs at `hosts_per_leaf × rate_bps / (spines × oversub)`,
    /// so `oversub = 1` is non-blocking and `oversub = 4` is the classic
    /// 4:1 oversubscribed data-centre fabric (and makes the fabric
    /// heterogeneous — uplinks slower than host links).
    pub fn leaf_spine(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        oversub: f64,
        rate_bps: u64,
        prop_ns: u64,
    ) -> Topology {
        assert!(
            leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1,
            "leaf-spine needs >= 2 leaves, >= 1 spine, >= 1 host per leaf"
        );
        assert!(oversub > 0.0, "oversubscription ratio must be positive");
        let uplink_bps =
            ((hosts_per_leaf as f64 * rate_bps as f64) / (spines as f64 * oversub)).round() as u64;
        assert!(uplink_bps > 0, "oversubscription leaves uplinks at 0 bps");
        let mut t = Topology::new();
        let mut leaf_ids = Vec::with_capacity(leaves);
        for _ in 0..leaves {
            let leaf = t.add_node(NodeKind::Switch);
            leaf_ids.push(leaf);
            for _ in 0..hosts_per_leaf {
                let host = t.add_node(NodeKind::Host);
                t.connect(host, leaf, rate_bps, prop_ns);
            }
        }
        let spine_ids: Vec<NodeId> = (0..spines).map(|_| t.add_node(NodeKind::Switch)).collect();
        for &leaf in &leaf_ids {
            for &spine in &spine_ids {
                t.connect(leaf, spine, uplink_bps, prop_ns);
            }
        }
        t.compute_routes();
        t
    }

    /// Build a Jellyfish-style fabric (Singla et al.): `switches`
    /// switches wired into a seeded random `net_degree`-regular graph
    /// (simple and connected — stub matching with deterministic
    /// retries), each hosting `hosts_per_switch` hosts. All links share
    /// `rate_bps`/`prop_ns`. Same seed ⇒ identical graph.
    pub fn jellyfish(
        switches: usize,
        net_degree: usize,
        hosts_per_switch: usize,
        rate_bps: u64,
        prop_ns: u64,
        seed: u64,
    ) -> Topology {
        assert!(
            net_degree >= 2 && switches > net_degree,
            "jellyfish needs net_degree >= 2 and more switches than the degree"
        );
        assert!(
            (switches * net_degree).is_multiple_of(2),
            "switches x net_degree must be even"
        );
        let edges = random_regular_edges(switches, net_degree, seed);
        let mut t = Topology::new();
        let sw: Vec<NodeId> = (0..switches)
            .map(|_| t.add_node(NodeKind::Switch))
            .collect();
        for &(a, b) in &edges {
            t.connect(sw[a], sw[b], rate_bps, prop_ns);
        }
        for &s in &sw {
            for _ in 0..hosts_per_switch {
                let host = t.add_node(NodeKind::Host);
                t.connect(host, s, rate_bps, prop_ns);
            }
        }
        t.compute_routes();
        t
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
}

/// Reusable scratch for [`compute_column`], so per-column searches
/// allocate nothing: the search's distance buckets (weights are 1 or 2,
/// so three buckets indexed by `distance % 3` hold every open distance)
/// and the reached-switch list.
#[derive(Default)]
struct ColumnScratch {
    buckets: [Vec<u32>; 3],
    reached: Vec<u32>,
}

/// One (layer, column) for [`compute_column`] to rebuild: the column's
/// slices of the column-major arenas plus the layer context the search
/// needs.
struct Column<'a> {
    /// The layer's link-weight arena (shared, read-only).
    weights: &'a [u8],
    /// The access switch this column routes towards.
    root: NodeId,
    /// The column's `P_f`-length route-cell slice.
    buf: &'a mut [u16],
    /// The column's `S`-length occupied-prefix slice, by switch row.
    len: &'a mut [u16],
    /// The column's `S`-length distance slice, by switch row.
    dist: &'a mut [u32],
}

/// Whether a host is unreachable by its own doing under `mask`: the
/// host or its (single, port 0) access link is down. A dead ToR needs
/// no bit — its column is empty.
fn host_cut(mask: &FaultMask, host: NodeId) -> bool {
    mask.node_is_down(host) || mask.link_is_down(host, 0)
}

/// The usable switch-to-switch links of switch `u` under `mask` (link
/// up, peer a live switch), as `(port index, global port id, port)` in
/// ascending port order. The only adjacency route computation sees:
/// hosts are in no frontier and no surgery loop.
fn fabric_links<'a>(
    kinds: &'a [NodeKind],
    ports: &'a [Port],
    off: &[u32],
    mask: &'a FaultMask,
    u: u32,
) -> impl Iterator<Item = (u16, usize, &'a Port)> {
    let base = off[u as usize] as usize;
    let mine = &ports[base..off[u as usize + 1] as usize];
    mine.iter().enumerate().filter_map(move |(pi, port)| {
        let usable = kinds[port.peer.0 as usize] == NodeKind::Switch
            && !mask.link_is_down(NodeId(u), pi as u16)
            && !mask.node_is_down(port.peer);
        usable.then_some((pi as u16, base + pi, port))
    })
}

/// Rebuild one layer's routing column for one access switch: a weighted
/// shortest-path search over [`fabric_links`] from the root outward
/// (weights in {1, 2} per the layer's preferred-link draw; all 1 on
/// layer 0), recording the distances in the column's `dist` slice, then
/// record every reached switch's advertised ports into its arena cell —
/// exactly the ports on weighted shortest paths, in ascending port
/// order. The search traverses links in reverse, but the mask and the
/// weights are symmetric per link, so checking the (u, port) direction
/// suffices. A free function (not a method), taking only this column's
/// slices of the column-major arenas, so the caller can borrow
/// `Topology` fields disjointly. The search runs on node ids and
/// indexes the slices by each switch's [`SwitchRow`].
fn compute_column(
    kinds: &[NodeKind],
    ports: &[Port],
    off: &[u32],
    rows: &[SwitchRow],
    mask: &FaultMask,
    column: Column,
    scratch: &mut ColumnScratch,
) {
    let Column {
        weights,
        root,
        buf,
        len,
        dist,
    } = column;
    len.fill(0);
    dist.fill(u32::MAX);
    if mask.node_is_down(root) {
        return;
    }
    let row = |n: u32| rows[n as usize].row as usize;
    // Dial's algorithm: settle distances in increasing order, one
    // bucket per distance. Relaxing from distance d only ever fills the
    // buckets of d + 1 and d + 2, never the one being drained.
    let ColumnScratch { buckets, reached } = scratch;
    reached.clear();
    dist[row(root.0)] = 0;
    buckets[0].push(root.0);
    let (mut d, mut open) = (0u32, 1usize);
    while open > 0 {
        let mut level = std::mem::take(&mut buckets[(d % 3) as usize]);
        open -= level.len();
        for u in level.drain(..) {
            if dist[row(u)] != d {
                continue; // settled closer through another neighbour
            }
            reached.push(u);
            for (_, gid, port) in fabric_links(kinds, ports, off, mask, u) {
                let (nd, v) = (d + weights[gid] as u32, port.peer.0);
                if nd < dist[row(v)] {
                    dist[row(v)] = nd;
                    buckets[(nd % 3) as usize].push(v);
                    open += 1;
                }
            }
        }
        buckets[(d % 3) as usize] = level; // hand the allocation back
        d += 1;
    }
    // Every reached switch but the root (settled first) gets a cell.
    for &u in &reached[1..] {
        let SwitchRow { row: r, cell } = rows[u as usize];
        let (r, base) = (r as usize, cell as usize);
        let mut l = 0usize;
        for (pi, gid, port) in fabric_links(kinds, ports, off, mask, u) {
            let dv = dist[row(port.peer.0)];
            if dv != u32::MAX && dv + weights[gid] as u32 == dist[r] {
                buf[base + l] = pi;
                l += 1;
            }
        }
        len[r] = l as u16;
    }
}

/// Patch one layer's route arena for restored switches and fabric
/// links, column by column. For every column whose distances cannot
/// shrink, restored ports are re-advertised exactly where they are
/// equal-cost next hops under the layer's weights — in-place cell
/// shifts, no allocation; columns where the restored element lies on a
/// strictly shorter weighted path (or re-attaches a cut-off region) are
/// flagged in `col_dirty` for a per-column rebuild. Elements are
/// processed sequentially, so a restored switch's freshly computed
/// distance feeds the checks of later elements in the same delta.
// The column loops index several parallel per-column tables
// (`col_dirty`, the dist/len arenas, `roots`); iterator chains would
// obscure that they advance in lockstep.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn restore_surgery_layer(
    kinds: &[NodeKind],
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
        let wu = w.0 as usize;
        // w's usable links under the new mask: (port, peer, the peer's
        // port back to w, link weight).
        let live: Vec<(u16, usize, u16, u32)> = fabric_links(kinds, ports, off, mask, w.0)
            .map(|(pi, gid, port)| {
                (
                    pi,
                    port.peer.0 as usize,
                    port.peer_port,
                    weights[gid] as u32,
                )
            })
            .collect();
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
            let dw = live
                .iter()
                .map(|&(_, peer, _, wl)| tab.dist_to(ix, peer, col).saturating_add(wl))
                .min()
                .unwrap_or(u32::MAX);
            if dw == u32::MAX {
                continue; // still cut off; cell stays empty
            }
            // Any usable neighbour strictly farther than dw + w(link)
            // (including unreachable ones) gets closer through w — the
            // shrink can cascade, so rebuild this column.
            if live
                .iter()
                .any(|&(_, peer, _, wl)| tab.dist_to(ix, peer, col) > dw + wl)
            {
                col_dirty[col] = true;
                continue;
            }
            // Pure surgery: record w's own advertised ports straight
            // into its (empty — cleared when it died) cell, and make w
            // an additional equal-cost hop at neighbours one link
            // further out.
            tab.set_dist(ix, wu, col, dw);
            let (cell, _) = tab.cell(ix, wu, col);
            let mut l = 0usize;
            for &(pi, peer, back, wl) in &live {
                let dp = tab.dist_to(ix, peer, col);
                if dp + wl == dw {
                    tab.buf[cell + l] = pi;
                    l += 1;
                } else if dp == dw + wl {
                    tab.insert_port(ix, peer, col, back);
                }
            }
            let li = tab.slot(ix, wu, col);
            tab.len[li] = l as u16;
        }
    }
    for &(u, p) in restored_links {
        let port = ports[off[u as usize] as usize + p as usize];
        let (v, q) = (port.peer, port.peer_port);
        // The link only carries traffic if both endpoints are alive.
        if mask.node_is_down(NodeId(u)) || mask.node_is_down(v) {
            continue;
        }
        let wl = weights[off[u as usize] as usize + p as usize] as u32;
        for col in 0..roots.len() {
            if col_dirty[col] {
                continue;
            }
            let du = tab.dist_to(ix, u as usize, col);
            let dv = tab.dist_to(ix, v.0 as usize, col);
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
                tab.insert_port(ix, u as usize, col, p);
            } else if dv == du + wl {
                tab.insert_port(ix, v.0 as usize, col, q);
            }
        }
    }
}

/// A simple connected random regular graph, seeded and deterministic.
///
/// Low degrees use stub matching: shuffle every switch's stubs, pair
/// them up, and retry the whole shuffle (with a deterministically
/// perturbed seed) on self-loops, duplicate edges, or a disconnected
/// result. The no-collision odds decay like `exp(-d²/4)`, so from
/// degree 6 up (the 5k-host Jellyfish runs at degree 12) the whole
/// graph is built by [`swapped_regular_edges`] instead.
fn random_regular_edges(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    if d >= 6 {
        return swapped_regular_edges(n, d, seed);
    }
    'attempt: for attempt in 0..10_000u64 {
        let mut rng = Pcg32::new(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| (0..d).map(move |_| i)).collect();
        rng.shuffle(&mut stubs);
        let mut seen = std::collections::BTreeSet::new();
        let mut edges = Vec::with_capacity(n * d / 2);
        for pair in stubs.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue 'attempt;
            }
            edges.push((a.min(b), a.max(b)));
        }
        if connected(n, &edges) {
            return edges;
        }
    }
    panic!("could not build a connected {d}-regular graph on {n} switches");
}

/// Whether the undirected graph on nodes `0..n` is connected.
fn connected(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut visited = vec![false; n];
    let mut stack = vec![0usize];
    visited[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// Connected random regular graph for degrees where stub matching is
/// hopeless: start from a deterministic connected circulant (ring
/// chords 1..d/2, plus the antipodal matching when d is odd) and mix it
/// with seeded double-edge swaps, which preserve d-regularity and
/// simplicity by construction. Swapping continues in rounds until the
/// result is connected.
fn swapped_regular_edges(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(
        d < n - 1,
        "degree-{d} regular graph needs > {} switches",
        d + 1
    );
    assert!(
        (n * d).is_multiple_of(2),
        "n*d must be even for a {d}-regular graph"
    );
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * d / 2);
    for j in 1..=d / 2 {
        for i in 0..n {
            let k = (i + j) % n;
            edges.push((i.min(k), i.max(k)));
        }
    }
    if d % 2 == 1 {
        // n is even here (n*d even with d odd).
        for i in 0..n / 2 {
            edges.push((i, i + n / 2));
        }
    }
    let mut present: std::collections::BTreeSet<(usize, usize)> = edges.iter().copied().collect();
    debug_assert_eq!(present.len(), edges.len(), "circulant base must be simple");
    let mut rng = Pcg32::new(seed ^ 0x0005_EED0_F1A7_u64);
    let target = 20 * edges.len();
    for _ in 0..100 {
        let mut done = 0;
        let mut tries = 0;
        while done < target && tries < 20 * target {
            tries += 1;
            let i = rng.below(edges.len() as u64) as usize;
            let j = rng.below(edges.len() as u64) as usize;
            let (a, b) = edges[i];
            let (c, e) = edges[j];
            // Two orientations of the rewiring; pick one at random.
            let (c, e) = if rng.below(2) == 1 { (e, c) } else { (c, e) };
            if a == c || a == e || b == c || b == e {
                continue;
            }
            let na = (a.min(c), a.max(c));
            let nb = (b.min(e), b.max(e));
            if present.contains(&na) || present.contains(&nb) {
                continue;
            }
            present.remove(&edges[i]);
            present.remove(&edges[j]);
            present.insert(na);
            present.insert(nb);
            edges[i] = na;
            edges[j] = nb;
            done += 1;
        }
        // A disconnected result gets another round of mixing (swaps
        // across components reconnect them).
        if connected(n, &edges) {
            return edges;
        }
    }
    panic!("could not mix a connected {d}-regular graph on {n} switches");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_counts() {
        // k=4: 16 hosts, 4 pods × (2+2) switches + 4 cores = 20 switches.
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.node_count(), 16 + 8 + 8 + 4);
        // k=10: the paper's 250-server fabric.
        let t10 = Topology::fat_tree(10, 1_000_000_000, 10_000);
        assert_eq!(t10.hosts().len(), 250);
        assert_eq!(t10.node_count(), 250 + 50 + 50 + 25);
    }

    #[test]
    fn fat_tree_symmetric_ports() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        for n in 0..t.node_count() as u32 {
            for (i, p) in t.node_ports(NodeId(n)).iter().enumerate() {
                let back = t.port(p.peer, p.peer_port);
                assert_eq!(back.peer, NodeId(n));
                assert_eq!(back.peer_port as usize, i);
            }
        }
    }

    #[test]
    fn hosts_have_one_port_switches_k() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        for &h in t.hosts() {
            assert_eq!(t.node_ports(h).len(), 1);
        }
        for n in 0..t.node_count() as u32 {
            if t.kind(NodeId(n)) == NodeKind::Switch {
                assert_eq!(t.node_ports(NodeId(n)).len(), 4, "switch degree");
            }
        }
    }

    #[test]
    fn path_hops_structure() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        // Same rack: 2 hops (host→edge→host).
        assert_eq!(t.path_hops(hosts[0], hosts[1]), 2);
        // Same pod, different rack: 4 hops.
        assert_eq!(t.path_hops(hosts[0], hosts[2]), 4);
        // Different pod: 6 hops.
        assert_eq!(t.path_hops(hosts[0], hosts[15]), 6);
    }

    #[test]
    fn multipath_counts() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[15]);
        // At the source edge switch there are k/2 = 2 equal-cost uplinks.
        let edge = t.edge_switch(src);
        assert_eq!(t.next_ports(edge, dst).len(), 2);
        // At the host there is exactly one way out.
        assert_eq!(t.next_ports(src, dst).len(), 1);
    }

    #[test]
    fn same_rack_detection() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        assert!(t.same_rack(hosts[0], hosts[1]));
        assert!(!t.same_rack(hosts[0], hosts[2]));
    }

    #[test]
    fn base_rtt_sane() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        // Inter-pod: 6 hops × (12µs ser + 10µs prop) forward
        //          + 6 hops × (0.512µs + 10µs) back.
        let rtt = t.base_rtt_ns(hosts[0], hosts[15], 1500, 64);
        assert_eq!(rtt, 6 * (12_000 + 10_000) + 6 * (512 + 10_000));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        t.connect(a, a, 1, 1);
    }

    #[test]
    fn leaf_spine_structure_and_oversub() {
        // 4 leaves x 4 hosts, 2 spines, 2:1 oversubscription.
        let t = Topology::leaf_spine(4, 2, 4, 2.0, 1_000_000_000, 10_000);
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.node_count(), 16 + 4 + 2);
        // Uplink rate = 4 x 1G / (2 spines x 2.0) = 1 Gbps... per uplink.
        let leaf = t.edge_switch(t.hosts()[0]);
        let uplink = t
            .node_ports(leaf)
            .iter()
            .find(|p| t.kind(p.peer) == NodeKind::Switch)
            .unwrap();
        assert_eq!(uplink.rate_bps, 1_000_000_000);
        // Inter-leaf paths go host-leaf-spine-leaf-host = 4 hops with 2
        // equal-cost spine choices at the leaf.
        let (a, b) = (t.hosts()[0], t.hosts()[15]);
        assert_eq!(t.path_hops(a, b), 4);
        assert_eq!(t.next_ports(t.edge_switch(a), b).len(), 2);
        // Spines are the core layer.
        assert_eq!(t.core_switches().len(), 2);
    }

    #[test]
    fn base_rtt_walks_heterogeneous_links() {
        // 4:1 oversubscribed uplinks: 4 hosts x 1G / (1 spine x 4.0) =
        // 1 Gbps... use 2 spines => 500 Mbps uplinks.
        let t = Topology::leaf_spine(2, 2, 4, 4.0, 1_000_000_000, 10_000);
        let (a, b) = (t.hosts()[0], t.hosts()[7]);
        // Forward 1500 B: host->leaf at 1G (12 us), leaf->spine and
        // spine->leaf at 500 M (24 us each), leaf->host at 1G (12 us),
        // plus 10 us propagation per hop.
        let fwd = (12_000 + 24_000 + 24_000 + 12_000) + 4 * 10_000;
        // Return 64 B: 512 ns at 1G, 1024 ns at 500 M.
        let back = (512 + 1_024 + 1_024 + 512) + 4 * 10_000;
        assert_eq!(t.base_rtt_ns(a, b, 1500, 64), fwd + back);
    }

    #[test]
    fn jellyfish_regular_connected_deterministic() {
        let t = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 7);
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.node_count(), 16 + 8);
        for n in 0..8u32 {
            assert_eq!(t.kind(NodeId(n)), NodeKind::Switch);
            assert_eq!(t.node_ports(NodeId(n)).len(), 3 + 2, "switch degree");
        }
        // All pairs reachable.
        for &a in t.hosts() {
            for &b in t.hosts() {
                if a != b {
                    assert!(t.path_hops(a, b) >= 2);
                }
            }
        }
        // Same seed => identical wiring; different seed => different.
        let t2 = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 7);
        let t3 = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 8);
        let wiring = |t: &Topology| -> Vec<Vec<u32>> {
            (0..t.node_count() as u32)
                .map(|n| t.node_ports(NodeId(n)).iter().map(|p| p.peer.0).collect())
                .collect()
        };
        assert_eq!(wiring(&t), wiring(&t2));
        assert_ne!(wiring(&t), wiring(&t3));
    }

    #[test]
    fn layered_policy_widens_path_set_and_stays_loop_free() {
        let mut t = Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3);
        let minimal: usize = count_advertised(&t, 0);
        t.set_policy(RoutingPolicy::layered(3, 7));
        t.compute_routes();
        assert_eq!(t.layer_count(), 3);
        // Layer 0 is bit-identical to plain minimal routing.
        assert_eq!(count_advertised(&t, 0), minimal);
        // The union of layers advertises paths minimal routing lacks:
        // some (node, dst) pair must advertise a port on a non-minimal
        // layer that layer 0 does not.
        let mut widened = false;
        for layer in 1..t.layer_count() {
            for n in 0..t.node_count() as u32 {
                for &h in t.hosts() {
                    if NodeId(n) == h {
                        continue;
                    }
                    let min_ports = t.try_next_ports(NodeId(n), h);
                    if t.try_next_ports_on(layer, NodeId(n), h)
                        .iter()
                        .any(|p| !min_ports.contains(p))
                    {
                        widened = true;
                    }
                }
            }
        }
        assert!(widened, "extra layers must expose non-minimal paths");
        // Any walk over a layer's advertised ports terminates within the
        // 2x stretch bound (the weighted distance strictly decreases).
        let hosts = t.hosts().to_vec();
        let mut rng = Pcg32::new(99);
        for layer in 0..t.layer_count() {
            for _ in 0..100 {
                let a = hosts[rng.below(hosts.len() as u64) as usize];
                let b = hosts[rng.below(hosts.len() as u64) as usize];
                if a == b {
                    continue;
                }
                let bound = 2 * t.path_hops(a, b) as usize;
                let mut at = a;
                let mut steps = 0;
                while at != b {
                    let choices = t.try_next_ports_on(layer, at, b);
                    assert!(!choices.is_empty(), "layer {layer} lost {}->{}", a.0, b.0);
                    at = t
                        .port(at, choices[rng.below(choices.len() as u64) as usize])
                        .peer;
                    steps += 1;
                    assert!(steps <= bound, "layer {layer} walk exceeded 2x stretch");
                }
            }
        }
        // next_ports[0] still walks a minimal path.
        let (a, b) = (hosts[0], hosts[7]);
        let minimal_t = Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3);
        assert_eq!(t.path_hops(a, b), minimal_t.path_hops(a, b));
    }

    fn count_advertised(t: &Topology, layer: usize) -> usize {
        let mut total = 0;
        for n in 0..t.node_count() as u32 {
            for &h in t.hosts() {
                if NodeId(n) != h {
                    total += t.try_next_ports_on(layer, NodeId(n), h).len();
                }
            }
        }
        total
    }

    #[test]
    fn masked_recompute_routes_around_core_failure() {
        let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let core = t.core_switches()[0];
        let mut mask = FaultMask::new();
        mask.fail_node(core);
        t.compute_routes_masked(&mask);
        let hosts = t.hosts().to_vec();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                // Every pair still routable, never through the dead core.
                let mut at = a;
                let mut steps = 0;
                while at != b {
                    let p = t.next_ports(at, b)[0];
                    at = t.port(at, p).peer;
                    assert_ne!(at, core, "path crosses the failed core");
                    steps += 1;
                    assert!(steps <= 6);
                }
            }
        }
        // Restoring the mask restores the full path set.
        t.compute_routes();
        let edge = t.edge_switch(hosts[0]);
        assert_eq!(t.next_ports(edge, hosts[15]).len(), 2);
    }

    /// Full snapshot of every layer's advertised route tables, for
    /// equivalence checks between incremental repair and full
    /// recomputation.
    fn route_tables(t: &Topology) -> Vec<Vec<Vec<Vec<u16>>>> {
        (0..t.layer_count())
            .map(|layer| {
                (0..t.node_count() as u32)
                    .map(|n| {
                        t.hosts()
                            .iter()
                            .map(|&h| t.try_next_ports_on(layer, NodeId(n), h).to_vec())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Every layer's weight table, via the public accessor — the
    /// representation the cache-reuse test snapshots.
    fn weight_snapshot(t: &Topology) -> Vec<Vec<u8>> {
        (0..t.layer_count())
            .map(|layer| {
                (0..t.node_count() as u32)
                    .flat_map(|n| {
                        (0..t.node_ports(NodeId(n)).len() as u16)
                            .map(move |p| (NodeId(n), p))
                            .collect::<Vec<_>>()
                    })
                    .map(|(n, p)| t.layer_link_weight(layer, n, p))
                    .collect()
            })
            .collect()
    }

    /// Mid-run masked recomputes and repairs reuse the cached weight
    /// arenas: the tables depend only on (policy, frozen graph), never
    /// the fault mask, so fault events must not re-derive one seeded
    /// hash per inter-switch link — and the cached tables must be
    /// bit-identical to freshly derived ones.
    #[test]
    fn weight_tables_cached_across_masked_recomputes() {
        let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        t.set_policy(RoutingPolicy::layered(3, 9));
        t.compute_routes();
        let builds = t.weight_builds();
        let snapshot = weight_snapshot(&t);
        let mut mask = FaultMask::new();
        mask.fail_node(t.core_switches()[0]);
        t.compute_routes_masked(&mask);
        mask.fail_link(&t, t.hosts()[0], 0);
        t.repair_routes(&mask);
        mask.restore_node(t.core_switches()[0]);
        t.repair_routes(&mask);
        assert_eq!(
            t.weight_builds(),
            builds,
            "fault events rebuilt mask-independent weight tables"
        );
        assert_eq!(weight_snapshot(&t), snapshot, "cached tables diverged");
        // A policy change invalidates the cache; flipping back rebuilds
        // tables identical to the originally cached ones (the tables
        // are a pure function of policy + graph).
        t.set_policy(RoutingPolicy::layered(3, 10));
        t.compute_routes();
        assert_eq!(t.weight_builds(), builds + 1, "policy change must rebuild");
        t.set_policy(RoutingPolicy::layered(3, 9));
        t.compute_routes();
        assert_eq!(weight_snapshot(&t), snapshot);
    }

    #[test]
    fn repair_single_link_matches_full_and_rebuilds_few() {
        // Fail one agg–core link on a k=4 fat-tree: only the core's
        // single path into the agg's pod empties, so just that pod's
        // edge switches (2 of 8) need a BFS rebuild. The true core layer is the
        // last-added (k/2)² nodes (`core_switches()` includes aggs).
        let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let core = NodeId(pristine.node_count() as u32 - 1);
        let mut mask = FaultMask::new();
        mask.fail_link(&pristine, core, 0);

        let mut full = pristine.clone();
        full.compute_routes_masked(&mask);
        let mut repaired = pristine.clone();
        let outcome = repaired.repair_routes(&mask);
        assert!(!outcome.full, "single link failure must repair in place");
        assert!(
            outcome.dests_rebuilt <= 2,
            "at most one pod's edge-switch columns rebuilt (got {})",
            outcome.dests_rebuilt
        );
        assert!(outcome.dests_touched > 0, "surgery must remove dead ports");
        assert_eq!(
            route_tables(&full),
            route_tables(&repaired),
            "repair must be exact"
        );
    }

    #[test]
    fn repair_core_switch_is_pure_surgery() {
        // Killing a whole core-layer switch changes no distances on a
        // fat-tree (every agg keeps an equal-cost sibling core), so the
        // repair is pure port-list surgery: zero BFS rebuilds. Note
        // `core_switches()` also returns aggs (any host-free switch);
        // the true core layer is the last-added (k/2)² nodes.
        let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let core = NodeId(pristine.node_count() as u32 - 1);
        let mut mask = FaultMask::new();
        mask.fail_node(core);
        let mut full = pristine.clone();
        full.compute_routes_masked(&mask);
        let mut repaired = pristine.clone();
        let outcome = repaired.repair_routes(&mask);
        assert!(!outcome.full);
        assert_eq!(outcome.dests_rebuilt, 0, "no distance changed");
        assert_eq!(route_tables(&full), route_tables(&repaired));
    }

    #[test]
    fn repair_sequential_faults_track_full_recompute() {
        // Grow the mask one failure at a time; each repair must leave the
        // tables identical to a from-scratch recomputation of the
        // accumulated mask.
        let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let cores = pristine.core_switches();
        let mut mask = FaultMask::new();
        let mut repaired = pristine.clone();
        for (step, &victim) in cores.iter().take(2).enumerate() {
            mask.fail_node(victim);
            repaired.repair_routes(&mask);
            let mut full = pristine.clone();
            full.compute_routes_masked(&mask);
            assert_eq!(
                route_tables(&full),
                route_tables(&repaired),
                "divergence after step {step}"
            );
        }
    }

    #[test]
    fn repair_restores_incrementally_on_every_layer() {
        // The true core layer is the last-added (k/2)² nodes
        // (`core_switches()` also returns aggs).
        let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let core = NodeId(t.node_count() as u32 - 1);
        let mut mask = FaultMask::new();
        mask.fail_node(core);
        assert!(!t.repair_routes(&mask).full);
        // Restoring the core re-adds equal-cost capacity without
        // changing any distance on a fat-tree: pure restore surgery.
        mask.restore_node(core);
        let outcome = t.repair_routes(&mask);
        assert!(!outcome.full, "restoration must repair incrementally");
        assert_eq!(outcome.restored, 1);
        assert_eq!(outcome.dests_rebuilt, 0, "no distance shrank");
        let healthy = Topology::fat_tree(4, 1_000_000_000, 10_000);
        assert_eq!(route_tables(&t), route_tables(&healthy));
        // An aggregation switch's death cuts its group's cores off from
        // the pod; the restoration must rebuild exactly that pod's two
        // edge-switch columns (where distances genuinely changed) and
        // still match.
        let mut t2 = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let agg = t2.core_switches()[0]; // host-free ⇒ agg or core; [0] is an agg
        let mut m2 = FaultMask::new();
        m2.fail_node(agg);
        t2.repair_routes(&m2);
        m2.restore_node(agg);
        let o2 = t2.repair_routes(&m2);
        assert!(!o2.full, "agg restoration must repair incrementally");
        assert_eq!(o2.dests_rebuilt, 2, "one pod's edge-switch columns rebuilt");
        assert_eq!(route_tables(&t2), route_tables(&healthy));
        // Layered policies repair incrementally too. A host-link flap
        // on a 3-layer Jellyfish is a bit flip on every layer at once —
        // no column rebuilt or touched either way — and lands exactly
        // on the from-scratch tables.
        let mut lt = Topology::jellyfish(12, 3, 2, 1_000_000_000, 10_000, 3);
        lt.set_policy(RoutingPolicy::layered(3, 11));
        lt.compute_routes();
        let layered_pristine = lt.clone();
        let victim_host = lt.hosts()[0];
        let mut m3 = FaultMask::new();
        m3.fail_link(&lt, victim_host, 0);
        let fail_outcome = lt.repair_routes(&m3);
        assert_eq!(
            (
                fail_outcome.full,
                fail_outcome.dests_rebuilt,
                fail_outcome.dests_touched
            ),
            (false, 0, 0),
            "layered host-link failure is a bit flip"
        );
        let mut layered_full = layered_pristine.clone();
        layered_full.compute_routes_masked(&m3);
        assert_eq!(route_tables(&lt), route_tables(&layered_full));
        m3.restore_link(&lt, victim_host, 0);
        let o3 = lt.repair_routes(&m3);
        assert!(!o3.full, "layered restoration must repair incrementally");
        assert_eq!(o3.restored, 1);
        assert_eq!(o3.dests_rebuilt + o3.dests_touched, 0, "bit flip back");
        assert_eq!(route_tables(&lt), route_tables(&layered_pristine));
        // An inter-switch link's blast radius on a weighted layer can
        // legitimately exceed the mass-delta threshold (weighted columns
        // often advertise a single port) — but fallback or surgery, the
        // repaired tables must equal a from-scratch recompute.
        let mut sw = layered_pristine.clone();
        let mut m4 = FaultMask::new();
        m4.fail_link(&sw, NodeId(0), 0);
        sw.repair_routes(&m4);
        let mut sw_full = layered_pristine.clone();
        sw_full.compute_routes_masked(&m4);
        assert_eq!(route_tables(&sw), route_tables(&sw_full));
        m4.restore_link(&sw, NodeId(0), 0);
        sw.repair_routes(&m4);
        assert_eq!(route_tables(&sw), route_tables(&layered_pristine));
    }

    #[test]
    fn restore_repair_link_and_host_cases() {
        // A host link flaps down and up: the cut bit flips and flips
        // back; no column is rebuilt either way.
        let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let victim = pristine.hosts()[0];
        let mut t = pristine.clone();
        let mut mask = FaultMask::new();
        mask.fail_link(&t, victim, 0);
        assert!(!t.repair_routes(&mask).full);
        mask.restore_link(&t, victim, 0);
        let outcome = t.repair_routes(&mask);
        assert!(!outcome.full, "link restoration must repair in place");
        assert_eq!(outcome.restored, 1);
        assert_eq!(outcome.dests_rebuilt, 0, "no column behind a host link");
        assert_eq!(route_tables(&t), route_tables(&pristine));

        // A whole host (node) dies and revives: same exactness.
        let mut t2 = pristine.clone();
        let mut m2 = FaultMask::new();
        m2.fail_node(victim);
        assert!(!t2.repair_routes(&m2).full);
        m2.restore_node(victim);
        let o2 = t2.repair_routes(&m2);
        assert!(!o2.full, "host restoration must repair in place");
        assert_eq!((o2.restored, o2.dests_rebuilt), (1, 0));
        assert_eq!(route_tables(&t2), route_tables(&pristine));
    }

    #[test]
    fn restore_repair_rebuilds_on_distance_shrink() {
        // A triangle a—b—c with hosts at a and c plus ballast hosts at b
        // (so two dirty columns stay under the mass-delta threshold).
        // Failing the a—c shortcut forces the long way; restoring it
        // must shrink distances back, which only a BFS rebuild can do.
        let mut t = Topology::new();
        let h0 = t.add_node(NodeKind::Host);
        let a = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Switch);
        let c = t.add_node(NodeKind::Switch);
        let h1 = t.add_node(NodeKind::Host);
        t.connect(h0, a, 1_000_000_000, 10_000);
        t.connect(a, b, 1_000_000_000, 10_000);
        t.connect(b, c, 1_000_000_000, 10_000);
        t.connect(a, c, 1_000_000_000, 10_000); // the shortcut
        t.connect(c, h1, 1_000_000_000, 10_000);
        for _ in 0..6 {
            let hb = t.add_node(NodeKind::Host);
            t.connect(hb, b, 1_000_000_000, 10_000);
        }
        t.compute_routes();
        let pristine = t.clone();
        assert_eq!(t.path_hops(h0, h1), 3, "shortcut path");
        let mut mask = FaultMask::new();
        // Port 2 on a is the a—c shortcut (ports: h0, b, c).
        mask.fail_link(&t, a, 2);
        t.repair_routes(&mask);
        assert_eq!(t.path_hops(h0, h1), 4, "detour through b");
        mask.restore_link(&t, a, 2);
        let outcome = t.repair_routes(&mask);
        assert!(!outcome.full);
        assert!(
            outcome.dests_rebuilt >= 1,
            "shrinking distances need a BFS rebuild"
        );
        assert_eq!(route_tables(&t), route_tables(&pristine));
        assert_eq!(t.path_hops(h0, h1), 3, "shortcut back in use");
    }

    #[test]
    fn repair_after_policy_change_takes_full_fallback() {
        // Changing the policy (even just its seed) without recomputing
        // invalidates the weight tables surgery would run against; the
        // next repair must fall back to a full recompute under the new
        // policy and land exactly on its from-scratch tables.
        let mut t = Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3);
        t.set_policy(RoutingPolicy::layered(2, 1));
        t.compute_routes();
        t.set_policy(RoutingPolicy::layered(2, 2)); // same count, new seed
        let mut mask = FaultMask::new();
        mask.fail_link(&t, NodeId(0), 0);
        assert!(t.repair_routes(&mask).full, "stale weights force fallback");
        let mut fresh = Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3);
        fresh.set_policy(RoutingPolicy::layered(2, 2));
        fresh.compute_routes_masked(&mask);
        assert_eq!(route_tables(&t), route_tables(&fresh));
        // With the policy stable again, the next delta repairs in place.
        mask.restore_link(&t, NodeId(0), 0);
        assert!(!t.repair_routes(&mask).full);
    }

    #[test]
    fn repair_with_no_delta_is_a_noop() {
        let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let before = route_tables(&t);
        let outcome = t.repair_routes(&FaultMask::new());
        assert!(!outcome.full);
        assert_eq!(outcome.dests_rebuilt + outcome.dests_touched, 0);
        assert_eq!(route_tables(&t), before);
    }

    #[test]
    fn repair_host_link_rebuilds_only_that_host() {
        // A dying host uplink cuts exactly one destination, and does it
        // with a bit flip: hosts are leaves nothing routes through, so
        // no column is rebuilt or even touched.
        let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000);
        let victim = pristine.hosts()[0];
        let mut mask = FaultMask::new();
        mask.fail_link(&pristine, victim, 0);
        let mut full = pristine.clone();
        full.compute_routes_masked(&mask);
        let mut repaired = pristine.clone();
        let outcome = repaired.repair_routes(&mask);
        assert!(!outcome.full);
        assert_eq!((outcome.dests_rebuilt, outcome.dests_touched), (0, 0));
        assert_eq!(route_tables(&full), route_tables(&repaired));
        let (neighbour, edge) = (pristine.hosts()[1], pristine.edge_switch(victim));
        assert!(repaired.try_next_ports(neighbour, victim).is_empty());
        assert!(repaired.try_next_ports(edge, victim).is_empty());
        assert_eq!(repaired.layer_distance(0, edge, victim), None);
        // The rack-mate behind the same ToR keeps its last hop.
        assert_eq!(repaired.try_next_ports(edge, neighbour).len(), 1);
        assert_eq!(repaired.layer_distance(0, victim, neighbour), None);
        assert_eq!(
            repaired.layer_distance(0, pristine.hosts()[2], neighbour),
            Some(4)
        );
    }

    #[test]
    #[should_panic(expected = "host 0 has 2 ports")]
    fn multi_homed_host_is_rejected() {
        let mut t = Topology::new();
        let h = t.add_node(NodeKind::Host);
        let a = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Switch);
        t.connect(h, a, 1_000_000_000, 10_000);
        t.connect(h, b, 1_000_000_000, 10_000);
        t.connect(a, b, 1_000_000_000, 10_000);
        t.compute_routes();
    }

    #[test]
    #[should_panic(expected = "host 0 is attached to non-switch node 1")]
    fn host_to_host_link_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, b, 1_000_000_000, 10_000);
        t.compute_routes();
    }

    /// Route tables scale with access switches × switch-to-switch
    /// ports: the 5 000-host Jellyfish's tables, exactly. (One column
    /// per host took ≈ 575 MB under two layers; node-keyed rows with
    /// host-port room in every cell, 28 849 328 B.)
    #[test]
    fn jellyfish_5000_route_table_bytes() {
        let mut t = Topology::jellyfish(250, 12, 20, 1_000_000_000, 10_000, 7);
        assert_eq!(t.hosts().len(), 5000);
        assert_eq!(t.route_table_bytes(), 2_017_332, "one layer");
        t.set_policy(RoutingPolicy::layered(2, 7));
        t.compute_routes();
        assert_eq!(t.route_table_bytes(), 3_892_332, "two layers");
        assert!(t.route_table_bytes() <= 4_000_000);
    }

    /// The same count at RNG scale (flat fabrics of 10⁴+ racks): a
    /// 20 000-host, 1 000-switch Jellyfish under two layers.
    #[test]
    #[ignore = "20 000-host build; run in release"]
    fn jellyfish_20000_route_tables_fit_in_64_mb() {
        let mut t = Topology::jellyfish(1000, 12, 20, 1_000_000_000, 10_000, 7);
        t.set_policy(RoutingPolicy::layered(2, 7));
        t.compute_routes();
        assert_eq!(t.hosts().len(), 20_000);
        assert_eq!(t.route_table_bytes(), 60_569_316);
        assert!(t.route_table_bytes() <= 64 << 20);
    }

    #[test]
    fn masked_recompute_leaves_cut_hosts_unroutable() {
        let mut t = Topology::leaf_spine(2, 2, 2, 1.0, 1_000_000_000, 10_000);
        let hosts = t.hosts().to_vec();
        let leaf = t.edge_switch(hosts[0]);
        let mut mask = FaultMask::new();
        mask.fail_node(leaf);
        t.compute_routes_masked(&mask);
        // Hosts behind the dead leaf are unreachable...
        assert!(t.try_next_ports(hosts[2], hosts[0]).is_empty());
        // ...but the other leaf's hosts still reach each other.
        assert!(!t.try_next_ports(hosts[2], hosts[3]).is_empty());
    }

    /// The switch index on every family, before and after repair. The
    /// Jellyfish numbers its switches first (row = id), so a row/id
    /// mix-up would pass there; the fat-tree and the leaf–spine
    /// interleave switches with hosts (leaf, its hosts, next leaf, …,
    /// spines), so there it cannot.
    #[test]
    fn csr_invariants_hold_after_build_and_repair() {
        let leaf_spine = Topology::leaf_spine(3, 2, 2, 1.0, 1_000_000_000, 10_000);
        assert_eq!(leaf_spine.switches.rows[3].row, 1, "second leaf, id 3");
        let mut jelly = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 7);
        jelly.set_policy(RoutingPolicy::layered(2, 5));
        jelly.compute_routes();
        for mut t in [
            Topology::fat_tree(4, 1_000_000_000, 10_000),
            leaf_spine,
            jelly,
        ] {
            t.check_csr_invariants();
            // The last switch dies, and the first rack's first fabric
            // link with it.
            let victim = (0..t.node_count() as u32)
                .rev()
                .map(NodeId)
                .find(|&n| t.kind(n) == NodeKind::Switch)
                .unwrap();
            let edge = t.edge_switch(t.hosts()[0]);
            let uplink = t
                .node_ports(edge)
                .iter()
                .position(|p| t.kind(p.peer) == NodeKind::Switch)
                .unwrap() as u16;
            let mut mask = FaultMask::new();
            mask.fail_node(victim);
            mask.fail_link(&t, edge, uplink);
            t.repair_routes(&mask);
            t.check_csr_invariants();
            mask.restore_node(victim);
            t.repair_routes(&mask);
            t.check_csr_invariants();
        }
    }

    /// One switch and two hosts: no switch-to-switch port, so every
    /// `buf` column is zero-width — yet the column's one row must still
    /// give the root distance 0, or the two hosts could never reach
    /// each other. Holds through a host-link failure and its repair.
    #[test]
    fn lone_switch_routes_through_a_zero_width_column() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        t.check_csr_invariants();
        let routed = |t: &Topology| {
            assert_eq!(t.next_ports(a, b), [0]);
            assert_eq!(t.next_ports(s, b), [1], "the switch's access port to b");
            assert_eq!(t.path_hops(a, b), 2);
        };
        routed(&t);
        let mut mask = FaultMask::new();
        mask.fail_link(&t, b, 0);
        t.repair_routes(&mask);
        assert!(t.try_next_ports(a, b).is_empty());
        mask.restore_link(&t, b, 0);
        t.repair_routes(&mask);
        t.check_csr_invariants();
        routed(&t);
    }
}
