//! Route tables: the switch-keyed arenas every layer's routes live in,
//! and the full per-column rebuild.
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
//! - **Live adjacency** (per recomputation or repair, not stored): a
//!   [`LiveFabric`] keyed by switch row — `off` (`S + 1` entries) over
//!   one flat `links` list holding each switch's usable
//!   switch-to-switch links under the mask as `(peer row, global port
//!   id, port index)`, in ascending port order. Column searches run in
//!   row space on it: they never touch a host port, and a neighbour's
//!   `dist` entry is one index, not a lookup through its node id.
//! - **Hosts** (shared by all layers): one small `access` record per
//!   host — its ToR, the ToR's column, the ToR's port facing it, and a
//!   `cut` bit (host or access link down under the mask the routes were
//!   computed with). A lookup towards a host resolves its record and
//!   answers everything host-shaped arithmetically: the last hop (at
//!   the ToR: the one access port), a host source (port 0 iff its ToR
//!   has a route), the destination itself (nothing), and a cut host
//!   (nothing, anywhere). A host or access-link fault is a bit flip.

use crate::fault::FaultMask;
use crate::rng::Pcg32;

use super::{host_cut, HostAccess, NodeId, NodeKind, Port, Topology};

/// A node's place in the switch-keyed route arenas, packed into one
/// word so a forwarding lookup resolves row and cell base with a single
/// load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SwitchRow {
    /// The switch's row: its index within a column of `len` and `dist`
    /// ([`SwitchRow::HOST`]'s `u32::MAX` for a host, which has none).
    pub(super) row: u32,
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
    pub(super) fn is_host(self) -> bool {
        self.row == Self::HOST.row
    }
}

/// The dense switch index every layer's arenas are keyed by (layout:
/// see the module docs), rebuilt by every freeze.
#[derive(Debug, Clone)]
pub(super) struct SwitchIndex {
    /// Per node: its [`SwitchRow`] (switches numbered in id order).
    pub(super) rows: Vec<SwitchRow>,
    /// Prefix over the switches' fabric degrees, by row: `S + 1`
    /// entries, `cell_off[S] = P_f`.
    cell_off: Vec<u32>,
}

impl SwitchIndex {
    /// The index of a graph with no switch.
    pub(super) fn empty() -> Self {
        Self {
            rows: Vec::new(),
            cell_off: vec![0],
        }
    }

    /// Number the switches of a frozen port arena in id order.
    pub(super) fn build(kinds: &[NodeKind], ports: &[Port], off: &[u32]) -> Self {
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
pub(super) struct LayerTables {
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
    /// Arena offset and capacity of the route cell for `(row, col)`.
    #[inline]
    fn cell(&self, ix: &SwitchIndex, row: usize, col: usize) -> (usize, usize) {
        let (cell, end) = (ix.cell_off[row], ix.cell_off[row + 1]);
        (
            col * self.n_fabric_ports + cell as usize,
            (end - cell) as usize,
        )
    }

    /// The advertised ports of `(u, col)`: the cell's occupied prefix.
    #[inline]
    pub(super) fn advertised(&self, ix: &SwitchIndex, u: usize, col: usize) -> &[u16] {
        let SwitchRow { row, cell } = ix.rows[u];
        let start = col * self.n_fabric_ports + cell as usize;
        let l = self.len[col * self.n_switches + row as usize] as usize;
        &self.buf[start..start + l]
    }

    /// Weighted distance from switch `u` to the root of column `col`.
    #[inline]
    pub(super) fn dist_to(&self, ix: &SwitchIndex, u: usize, col: usize) -> u32 {
        let row = ix.rows[u].row as usize;
        debug_assert!(row < self.n_switches, "node {u} has no switch row");
        self.dist_at(row, col)
    }

    /// Weighted distance from the switch in `row` to the root of `col`.
    #[inline]
    pub(super) fn dist_at(&self, row: usize, col: usize) -> u32 {
        self.dist[col * self.n_switches + row]
    }

    pub(super) fn set_dist(&mut self, row: usize, col: usize, d: u32) {
        self.dist[col * self.n_switches + row] = d;
    }

    /// Insert `p` into the cell of `(row, col)` keeping ascending order
    /// (no-op when already advertised). A cell holds distinct fabric
    /// port indices of its switch at capacity the fabric degree, so the
    /// shift always fits.
    pub(super) fn insert_port(&mut self, ix: &SwitchIndex, row: usize, col: usize, p: u16) {
        let (start, cap) = self.cell(ix, row, col);
        let li = col * self.n_switches + row;
        let l = self.len[li] as usize;
        if let Err(pos) = self.buf[start..start + l].binary_search(&p) {
            debug_assert!(l < cap, "route cell overflow");
            self.buf
                .copy_within(start + pos..start + l, start + pos + 1);
            self.buf[start + pos] = p;
            self.len[li] = (l + 1) as u16;
        }
    }

    /// Excise `p` from the cell of `(row, col)` if it is advertised
    /// there, keeping the rest in order: how many ports the cell still
    /// holds, or `None` when `p` was not among them.
    pub(super) fn excise(
        &mut self,
        ix: &SwitchIndex,
        row: usize,
        col: usize,
        p: u16,
    ) -> Option<u16> {
        let (start, _) = self.cell(ix, row, col);
        let li = col * self.n_switches + row;
        let l = self.len[li] as usize;
        let pos = self.buf[start..start + l].iter().position(|&x| x == p)?;
        self.buf
            .copy_within(start + pos + 1..start + l, start + pos);
        self.len[li] -= 1;
        Some(self.len[li])
    }

    /// Empty the cell of the switch in `row` and forget its distance in
    /// every column.
    pub(super) fn clear_row(&mut self, row: usize) {
        for li in (row..self.len.len()).step_by(self.n_switches) {
            self.len[li] = 0;
            self.dist[li] = u32::MAX;
        }
    }

    /// Fill the empty cell of `(row, col)` with `ports`, ascending.
    pub(super) fn set_advertised(
        &mut self,
        ix: &SwitchIndex,
        row: usize,
        col: usize,
        ports: &[u16],
    ) {
        let (start, cap) = self.cell(ix, row, col);
        debug_assert!(ports.len() <= cap, "route cell overflow");
        self.buf[start..start + ports.len()].copy_from_slice(ports);
        self.len[col * self.n_switches + row] = ports.len() as u16;
    }
}

impl Topology {
    /// Compute every layer's routing tables on the healthy fabric (must
    /// be called after the graph is final and before forwarding).
    pub fn compute_routes(&mut self) {
        self.compute_routes_masked(&FaultMask::new());
    }

    /// Recompute every layer's routing tables, treating every link and
    /// node in `mask` as absent. Re-runnable at any time; the simulator
    /// calls this when executing fault events mid-run. Destinations that
    /// the mask disconnects simply end up with empty port lists (see
    /// [`Topology::try_next_ports_on`]).
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
        let live = LiveFabric::build(self, mask);
        self.rebuild_columns(mask, &live, None);
        for (a, &h) in self.access.iter_mut().zip(&self.hosts) {
            a.cut = host_cut(mask, h);
        }
        self.routes_policy = Some(self.policy);
        self.routes_mask = mask.clone();
    }

    /// Rebuild route columns against `mask` (whose usable fabric links
    /// are `live`) — all of them, or only the (layer, column) pairs
    /// flagged in `dirty`; full recompute and repair share this loop. A
    /// column is a contiguous slice of each destination-major arena and
    /// is searched with one reused scratch.
    pub(super) fn rebuild_columns(
        &mut self,
        mask: &FaultMask,
        live: &LiveFabric,
        dirty: Option<&[Vec<bool>]>,
    ) {
        let ix = &self.switches;
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
                        root: (!mask.node_is_down(root)).then(|| ix.rows[root.0 as usize].row),
                        buf: &mut tab.buf[col * p_f..][..p_f],
                        len: &mut tab.len[col * s..][..s],
                        dist: &mut tab.dist[col * s..][..s],
                    };
                    compute_column(live, &ix.cell_off, column, &mut scratch);
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
        // Drawn once per link, from its lower end; mirrored to both.
        for (node, port) in self.switch_links() {
            let link_id = (u64::from(node.0) << 16) | u64::from(port);
            let mut rng = Pcg32::new(
                self.policy.seed
                    ^ (layer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ link_id.wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let weight = if rng.below(2) == 0 { 1 } else { 2 };
            let back = self.port(node, port);
            w[self.port_off[node.0 as usize] as usize + port as usize] = weight;
            w[self.port_off[back.peer.0 as usize] as usize + back.peer_port as usize] = weight;
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
                    let (_, cap) = tab.cell(ix, ix.rows[u].row as usize, col);
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
}

/// The usable switch-to-switch links under one fault mask, keyed by
/// switch row (CSR): row `r`'s links are `links[off[r]..off[r + 1]]`,
/// in ascending port order. A link is usable when its far end is a
/// live switch and the link is up. Built once per recomputation or
/// repair, so the searches ask the mask once per port rather than once
/// per port and column, and walk a switch's fabric links without its
/// host ports. The only adjacency route computation sees.
pub(super) struct LiveFabric {
    off: Vec<u32>,
    links: Vec<LiveLink>,
}

/// One usable directed switch-to-switch link of a [`LiveFabric`] row.
#[derive(Debug, Clone, Copy)]
pub(super) struct LiveLink {
    /// The far end's switch row.
    pub(super) peer: u32,
    /// The link's global port id (`port_off[node] + port`), which
    /// indexes the weight arenas.
    pub(super) gid: u32,
    /// The port's index at its own switch: what a route cell holds.
    pub(super) port: u16,
}

impl LiveFabric {
    pub(super) fn build(t: &Topology, mask: &FaultMask) -> Self {
        let ix = &t.switches;
        let mut live = Self {
            off: Vec::with_capacity(ix.switches() + 1),
            links: Vec::with_capacity(ix.fabric_ports()),
        };
        live.off.push(0);
        for (u, sr) in ix.rows.iter().enumerate() {
            if sr.is_host() {
                continue;
            }
            let base = t.port_off[u];
            for (pi, port) in t.node_ports(NodeId(u as u32)).iter().enumerate() {
                let peer = ix.rows[port.peer.0 as usize];
                if !peer.is_host()
                    && !mask.link_is_down(NodeId(u as u32), pi as u16)
                    && !mask.node_is_down(port.peer)
                {
                    live.links.push(LiveLink {
                        peer: peer.row,
                        gid: base + pi as u32,
                        port: pi as u16,
                    });
                }
            }
            live.off.push(live.links.len() as u32);
        }
        live
    }

    /// The usable links of the switch in `row`, ascending by port.
    #[inline]
    pub(super) fn of(&self, row: usize) -> &[LiveLink] {
        &self.links[self.off[row] as usize..self.off[row + 1] as usize]
    }
}

/// Reusable scratch for [`compute_column`], so per-column searches
/// allocate nothing: the search's distance buckets (weights are 1 or 2,
/// so three buckets indexed by `distance % 3` hold every open distance)
/// and the reached-row list.
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
    /// The row of the access switch this column routes towards, `None`
    /// when that switch is down (the column is then empty).
    root: Option<u32>,
    /// The column's `P_f`-length route-cell slice.
    buf: &'a mut [u16],
    /// The column's `S`-length occupied-prefix slice, by switch row.
    len: &'a mut [u16],
    /// The column's `S`-length distance slice, by switch row.
    dist: &'a mut [u32],
}

/// Rebuild one layer's routing column for one access switch: a weighted
/// shortest-path search over the [`LiveFabric`] from the root outward
/// (weights in {1, 2} per the layer's preferred-link draw; all 1 on
/// layer 0), recording the distances in the column's `dist` slice, then
/// record every reached switch's advertised ports into its arena cell
/// (based at `cell_off[row]`) — exactly the ports on weighted shortest
/// paths, in ascending port order. The search traverses links in
/// reverse, but the mask and the weights are symmetric per link, so
/// listing the (u, port) direction suffices. A free function (not a method),
/// taking only this column's slices of the column-major arenas, so the
/// caller can borrow `Topology` fields disjointly. The search runs in
/// row space: buckets hold rows and `dist` is indexed by them directly.
fn compute_column(
    live: &LiveFabric,
    cell_off: &[u32],
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
    let Some(root) = root else {
        return;
    };
    // Dial's algorithm: settle distances in increasing order, one
    // bucket per distance. Relaxing from distance d only ever fills the
    // buckets of d + 1 and d + 2, never the one being drained.
    let ColumnScratch { buckets, reached } = scratch;
    reached.clear();
    dist[root as usize] = 0;
    buckets[0].push(root);
    let (mut d, mut open) = (0u32, 1usize);
    while open > 0 {
        let mut level = std::mem::take(&mut buckets[(d % 3) as usize]);
        open -= level.len();
        for u in level.drain(..) {
            if dist[u as usize] != d {
                continue; // settled closer through another neighbour
            }
            reached.push(u);
            for link in live.of(u as usize) {
                let nd = d + weights[link.gid as usize] as u32;
                if nd < dist[link.peer as usize] {
                    dist[link.peer as usize] = nd;
                    buckets[(nd % 3) as usize].push(link.peer);
                    open += 1;
                }
            }
        }
        buckets[(d % 3) as usize] = level; // hand the allocation back
        d += 1;
    }
    // Every reached switch but the root (settled first) gets a cell.
    for &r in &reached[1..] {
        let (r, base) = (r as usize, cell_off[r as usize] as usize);
        let mut l = 0usize;
        for link in live.of(r) {
            let dv = dist[link.peer as usize];
            if dv != u32::MAX && dv + weights[link.gid as usize] as u32 == dist[r] {
                buf[base + l] = link.port;
                l += 1;
            }
        }
        len[r] = l as u16;
    }
}
