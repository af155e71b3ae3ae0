//! Route tables: the switch-keyed arenas every layer's routes live in,
//! and the block search that builds and repairs their columns, 64 per
//! pass.
//!
//! # Memory layout: CSR arenas
//!
//! Both the graph and the routing tables live in contiguous CSR-style
//! arenas instead of nested `Vec`s, so a forwarding decision is flat
//! arithmetic into a few big arrays rather than dependent pointer hops,
//! and repair surgery flips bits in one word per cell:
//!
//! - **Adjacency**: one flat `ports: Vec<Port>` plus a prefix-offset
//!   table `port_off: Vec<u32>` (length `nodes + 1`); node `n`'s ports
//!   are `ports[port_off[n] .. port_off[n+1]]` and `port_off[n] + p` is
//!   the *global port id* of `(n, p)`. The graph is built through an
//!   edge log and frozen into the arena by the first route computation.
//! - **Switch rows** (shared by all layers): the freeze numbers the
//!   `S` switches `0..S` in id order and gives each a *row*; hosts get
//!   none. A switch has at most 64 ports (the freeze refuses more), so
//!   one `u64` holds any set of its ports, bit `p` for port `p`: every
//!   next-hop mask, and every node's word of the fault mask, indexes
//!   ports directly. One per-node word holds the row, so a lookup
//!   resolves a node's place in the arenas with a single load.
//! - **Routes** (per layer): hosts are single-homed leaves, so every
//!   host behind one access switch (ToR) shares its routes up to the
//!   last hop. The tables therefore hold one destination column per
//!   **access switch** — never per host — and rows for switches only.
//!   One `u64` next-hop mask per `(switch, column)`, `next[c·S + row]`,
//!   has bit `p` set when the switch's port `p` is on a shortest path of
//!   the layer: the cell's ports ascend with their bits, so its order
//!   costs nothing to keep. Only switch-facing ports are ever set. The
//!   arenas are column-major — column `c` owns the contiguous
//!   `next[c·S..]` and `dist[c·S..]` — and a rebuild addresses each
//!   column by index. (A lone switch with hosts only has no
//!   switch-facing port, but its columns are still one row wide.)
//! - **Distances / weights** (per layer): one `u8` per `(switch,
//!   column)`, `dist[c·S + row]`, the weighted distance to the column's
//!   root (255 for unreachable; a distance over 254 is refused when it
//!   is found), and a per-layer weight arena indexed by global port id.
//! - **Live adjacency** (per recomputation or repair, not stored): a
//!   [`LiveFabric`] keyed by switch row — `off` (`S + 1` entries) over
//!   one flat `links` list holding each switch's usable
//!   switch-to-switch links under the mask as `(peer row, global port
//!   id, port)`, in ascending port order. The route search runs
//!   in row space on it: it never touches a host port, and a
//!   neighbour's `dist` entry is one index, not a lookup through its
//!   node id.
//! - **Hosts** (shared by all layers): one small `access` record per
//!   host — its ToR, the ToR's column, the ToR's port facing it, and a
//!   `cut` bit (host or access link down under the mask the routes were
//!   computed with). A lookup towards a host resolves its record and
//!   answers everything host-shaped arithmetically: the last hop (at
//!   the ToR: the one access port), a host source (port 0 iff its ToR
//!   has a route), the destination itself (nothing), and a cut host
//!   (nothing, anywhere). A host or access-link fault is a bit flip.
//!
//! # The route search: 64 columns per pass
//!
//! Every column of a layer is a shortest-path search from its root
//! over the same live fabric, so [`LayerTables::rebuild_block`] runs
//! up to 64 of them at once, one bit of a `u64` per column: each switch
//! row keeps one word per distance level, bit `j` set when column `j`
//! first reached it at that distance. Weights are 1 or 2, so a level is
//! what the previous level pushes along weight-1 links and the one
//! before along weight-2 links, less what is already reached; a link's
//! port joins a reached row's cells in the columns where its far end
//! sits one link weight closer, which sets its bit in those columns'
//! masks. A full recompute hands every column to the search, a repair
//! only the dirty ones; both go through [`Topology::rebuild_columns`].
//!
//! # Surgery
//!
//! A repair edits a column in place through three cell methods, each a
//! word write: [`LayerTables::excise`] clears a failed hop's port (the
//! cell emptied when its mask reads 0), [`LayerTables::clear`] zeroes a
//! dead switch's mask and distance, and [`LayerTables::join_hop`]
//! applies the search's own cell rule — a port joins where its far end
//! sits one link weight closer — to one restored hop, setting its port's
//! bit against distances already exact.

use crate::fault::FaultMask;
use crate::rng::Pcg32;

use super::{host_cut, HostAccess, NodeId, NodeKind, Topology};

/// The most ports a switch may have: one bit each of a `u64` next-hop
/// mask (or a fault mask's word), whose bit `p` is port `p`.
pub(crate) const MAX_DEGREE: usize = 64;

/// A `dist` entry for a switch the column's root is unreachable from.
pub(super) const UNREACHABLE: u8 = u8::MAX;

/// The largest weighted distance a `u8` entry holds (255 is
/// [`UNREACHABLE`]).
const MAX_DIST: u32 = UNREACHABLE as u32 - 1;

/// A weighted distance as a `dist` entry.
///
/// # Panics
/// Panics on a distance over [`MAX_DIST`].
fn dist_entry(d: u32) -> u8 {
    assert!(
        d <= MAX_DIST,
        "weighted distance {d} is over {MAX_DIST}, the most a route distance holds"
    );
    d as u8
}

/// A node's row in the switch-keyed route arenas: its index within a
/// column of `next` and `dist` ([`SwitchRow::HOST`] for a host, which
/// has none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SwitchRow {
    pub(super) row: u32,
}

impl SwitchRow {
    /// What a host holds: no row.
    const HOST: SwitchRow = SwitchRow { row: u32::MAX };

    /// Whether this is a host's word.
    #[inline]
    pub(super) fn is_host(self) -> bool {
        self == Self::HOST
    }
}

/// The dense switch index every layer's arenas are keyed by (layout:
/// see the module docs), built by the freeze.
#[derive(Debug, Clone)]
pub(super) struct SwitchIndex {
    /// Per node: its [`SwitchRow`] (switches numbered in id order).
    pub(super) rows: Vec<SwitchRow>,
    /// Switch count `S`.
    switches: usize,
}

impl SwitchIndex {
    /// The index of a graph with no switch.
    pub(super) fn empty() -> Self {
        Self {
            rows: Vec::new(),
            switches: 0,
        }
    }

    /// Number the switches of a frozen port arena in id order.
    ///
    /// # Panics
    /// Panics on a switch with more than 64 ports.
    pub(super) fn build(kinds: &[NodeKind], off: &[u32]) -> Self {
        let mut ix = Self::empty();
        ix.rows.reserve_exact(kinds.len());
        for (n, &kind) in kinds.iter().enumerate() {
            if kind == NodeKind::Host {
                ix.rows.push(SwitchRow::HOST);
                continue;
            }
            let degree = (off[n + 1] - off[n]) as usize;
            assert!(
                degree <= MAX_DEGREE,
                "switch {n} has {degree} ports; a route mask holds at most {MAX_DEGREE}"
            );
            ix.rows.push(SwitchRow {
                row: ix.switches as u32,
            });
            ix.switches += 1;
        }
        ix
    }
}

/// The ports one route lookup advertises, in ascending order: a mask
/// whose bit `p` is set when port `p` is among them. Indexing picks the
/// `k`-th set bit, the `k`-th advertised port.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NextPorts {
    mask: u64,
}

impl NextPorts {
    /// No port: the destination is unreachable (or is the node itself).
    pub(super) const EMPTY: NextPorts = NextPorts { mask: 0 };

    /// Exactly `port`.
    pub(super) fn one(port: u16) -> Self {
        Self { mask: 1 << port }
    }

    /// How many ports are advertised.
    #[inline]
    pub fn len(&self) -> usize {
        if self.mask >> 16 == 0 {
            let (low, high) = (self.mask as u8 as usize, (self.mask >> 8) as usize);
            return usize::from(BYTE_ONES[low] + BYTE_ONES[high]);
        }
        self.mask.count_ones() as usize
    }

    /// Whether no port is advertised.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// The advertised ports, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u16> {
        let mut bits = self.mask;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let p = bits.trailing_zeros() as u16;
            bits &= bits - 1;
            Some(p)
        })
    }

    /// The advertised ports, ascending, as a vector.
    pub fn to_vec(&self) -> Vec<u16> {
        self.iter().collect()
    }
}

/// `PORTS[p] = p`: what indexing a [`NextPorts`] returns a reference
/// into.
const PORTS: [u16; 64] = {
    let mut table = [0u16; 64];
    let mut p = 0;
    while p < 64 {
        table[p] = p as u16;
        p += 1;
    }
    table
};

impl std::ops::Index<usize> for NextPorts {
    type Output = u16;

    /// The `k`-th advertised port: the `k`-th set bit.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    #[inline]
    fn index(&self, k: usize) -> &u16 {
        &PORTS[select(self.mask, k)]
    }
}

/// `BYTE_ONES[b]`: how many bits of byte `b` are set.
const BYTE_ONES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).count_ones() as u8;
        b += 1;
    }
    table
};

/// `SELECT_IN_BYTE[b][r]`: the position of the `r`-th set bit of byte
/// `b` (64 when it has no such bit).
const SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[64u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// The position of the `r`-th set bit of byte `b`, 64 when it has none.
#[inline]
fn select_in_byte(b: u64, r: usize) -> usize {
    SELECT_IN_BYTE[b as u8 as usize]
        .get(r)
        .map_or(64, |&bit| usize::from(bit))
}

/// The position of the `k`-th set bit of `x` (from 0, lowest first),
/// or 64 or more — past the end of [`PORTS`] — when `x` has at most
/// `k`. A mask within ports 0–15 — every switch the workloads build —
/// takes one compare to pick its byte and no branch on `k`; a wider one
/// walks its bytes.
#[inline]
pub(super) fn select(x: u64, k: usize) -> usize {
    if x >> 16 == 0 {
        let low = usize::from(BYTE_ONES[x as u8 as usize]);
        let (base, byte, r) = if k < low {
            (0, x, k)
        } else {
            (8, x >> 8, k - low)
        };
        return base + select_in_byte(byte, r);
    }
    let (mut base, mut k) = (0, k);
    while base < 64 {
        let ones = usize::from(BYTE_ONES[(x >> base) as u8 as usize]);
        if k < ones {
            return base + select_in_byte(x >> base, k);
        }
        k -= ones;
        base += 8;
    }
    64
}

impl std::fmt::Debug for NextPorts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One layer's routing state as flat column-major arenas (layout: see
/// the module docs): next-hop masks and weighted distances, per (switch
/// row, access-switch column), maintained in lockstep by full
/// recomputation and incremental repair alike. Hosts have no row: the
/// last hop is resolved from [`HostAccess`]. Node-keyed accessors
/// translate through the [`SwitchIndex`].
#[derive(Debug, Clone, Default)]
pub(super) struct LayerTables {
    /// Switch count `S` (column stride of `next` and `dist`).
    n_switches: usize,
    /// `next[c·S + row]`: the next-hop mask of that (switch, column),
    /// bit `p` for the switch's port `p`.
    next: Vec<u64>,
    /// `dist[c·S + row]` = weighted distance from that switch to the
    /// column's root switch under the mask the routes were computed
    /// with ([`UNREACHABLE`]; the root itself holds 0 iff it is up).
    /// [`LayerTables::join_hop`] reads it to decide in O(1) per column
    /// whether a restored hop shortens a path.
    dist: Vec<u8>,
}

impl LayerTables {
    /// The advertised ports of switch `u` towards column `col`.
    #[inline]
    pub(super) fn next_ports(&self, ix: &SwitchIndex, u: usize, col: usize) -> NextPorts {
        let row = ix.rows[u].row as usize;
        NextPorts {
            mask: self.next[col * self.n_switches + row],
        }
    }

    /// Weighted distance from switch `u` to the root of column `col`.
    #[inline]
    pub(super) fn dist_to(&self, ix: &SwitchIndex, u: usize, col: usize) -> u8 {
        let row = ix.rows[u].row as usize;
        debug_assert!(row < self.n_switches, "node {u} has no switch row");
        self.dist_at(row, col)
    }

    /// Weighted distance from the switch in `row` to the root of `col`.
    #[inline]
    pub(super) fn dist_at(&self, row: usize, col: usize) -> u8 {
        self.dist[col * self.n_switches + row]
    }

    /// Set the distance of `(row, col)`: `None` is unreachable.
    pub(super) fn set_dist(&mut self, row: usize, col: usize, d: Option<u32>) {
        self.dist[col * self.n_switches + row] = d.map_or(UNREACHABLE, dist_entry);
    }

    /// Clear `port`'s bit in the mask of `(row, col)` if it is set: the
    /// mask left, or `None` when the port was not among it.
    pub(super) fn excise(&mut self, row: usize, col: usize, port: u16) -> Option<u64> {
        let mask = &mut self.next[col * self.n_switches + row];
        let b = 1 << port;
        if *mask & b == 0 {
            return None;
        }
        *mask &= !b;
        Some(*mask)
    }

    /// Empty the cell of `(row, col)` and forget its distance.
    pub(super) fn clear(&mut self, row: usize, col: usize) {
        let i = col * self.n_switches + row;
        self.next[i] = 0;
        self.dist[i] = UNREACHABLE;
    }

    /// The one rule for a restored directed hop `u → v` of weight `w`
    /// out of `u`'s port `port`, in column `col` (switch rows), against
    /// distances exact without it: nothing if `v` is unreachable; the
    /// port joins `u`'s mask if `d(u) = d(v) + w`; and `true` — the hop
    /// shortens a path, so the column must be rebuilt — if `d(u) >
    /// d(v) + w`.
    pub(super) fn join_hop(&mut self, col: usize, u: usize, port: u16, v: usize, w: u32) -> bool {
        let du = match self.dist_at(u, col) {
            UNREACHABLE => u32::MAX,
            d => u32::from(d),
        };
        let dv = self.dist_at(v, col);
        if dv == UNREACHABLE || du < u32::from(dv) + w {
            return false;
        }
        if du > u32::from(dv) + w {
            return true;
        }
        self.next[col * self.n_switches + u] |= 1 << port;
        false
    }
}

impl Topology {
    /// Compute every layer's routing tables on the healthy fabric. The
    /// first call makes the graph final; call it before forwarding.
    pub fn compute_routes(&mut self) {
        self.compute_routes_masked(&FaultMask::new());
    }

    /// Recompute every layer's routing tables, treating every link and
    /// node in `mask` as absent — a what-if or from-scratch reference;
    /// a running simulator only repairs its routes
    /// ([`Topology::repair_routes`]), and refuses a topology whose
    /// routes were computed under a non-empty mask. Re-runnable at any
    /// time. Destinations that the mask disconnects simply end up with
    /// empty port lists (see [`Topology::try_next_ports_on`]).
    ///
    /// The first call freezes the graph and builds the weight arenas;
    /// every later one reuses them and resizes the layer arenas in
    /// place.
    pub fn compute_routes_masked(&mut self, mask: &FaultMask) {
        if !self.routed() {
            self.freeze_ports();
            self.build_weights();
        }
        let s = self.switches.switches;
        let n_cols = self.col_root.len();
        let n_layers = self.policy.layers;
        self.layers.resize_with(n_layers, LayerTables::default);
        for tab in &mut self.layers {
            tab.n_switches = s;
            tab.next.resize(s * n_cols, 0);
            tab.dist.resize(s * n_cols, UNREACHABLE);
        }
        let live = LiveFabric::build(self, mask);
        self.rebuild_columns(mask, &live, None);
        self.refresh_cuts(mask);
        self.routes_mask.clone_from(mask);
    }

    /// Set every host's `cut` bit for `mask`.
    fn refresh_cuts(&mut self, mask: &FaultMask) {
        for (a, &h) in self.access.iter_mut().zip(&self.hosts) {
            a.cut = host_cut(mask, h);
        }
    }

    /// Set `n`'s `cut` bit for `mask` if `n` is a host.
    pub(super) fn refresh_cut(&mut self, mask: &FaultMask, n: NodeId) {
        if let Some(i) = self.host_index[n.0 as usize] {
            self.access[i as usize].cut = host_cut(mask, n);
        }
    }

    /// Rebuild route columns against `mask` (whose usable fabric links
    /// are `live`) — all of them, or only the (layer, column) pairs
    /// flagged in `dirty`; full recompute and repair share this loop.
    /// Each layer's columns go to [`LayerTables::rebuild_block`] 64 at a
    /// time, with one scratch reused across blocks and layers.
    pub(super) fn rebuild_columns(
        &mut self,
        mask: &FaultMask,
        live: &LiveFabric,
        dirty: Option<&[Vec<bool>]>,
    ) {
        let ix = &self.switches;
        let roots: Vec<Option<u32>> = self
            .col_root
            .iter()
            .map(|&root| (!mask.node_is_down(root)).then(|| ix.rows[root.0 as usize].row))
            .collect();
        let mut scratch = BlockScratch::new(ix.switches);
        let mut cols = Vec::with_capacity(roots.len());
        for (layer, tab) in self.layers.iter_mut().enumerate() {
            cols.clear();
            cols.extend(
                (0..roots.len() as u32).filter(|&c| dirty.is_none_or(|d| d[layer][c as usize])),
            );
            for block in cols.chunks(BLOCK) {
                tab.rebuild_block(live, &self.weights[layer], &roots, block, &mut scratch);
            }
        }
    }

    /// Build the per-layer link-weight arenas, once, at the first
    /// routing. They are a pure function of (policy, graph) — both
    /// final from then on — and independent of the fault mask, so every
    /// masked recompute and repair reuses them.
    fn build_weights(&mut self) {
        self.weights = (0..self.policy.layers)
            .map(|l| self.layer_weight_table(l))
            .collect();
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

    /// Bytes held by the route tables: every layer's `next`/`dist`
    /// arena capacity plus the per-host access records, the column list
    /// and the switch rows — the number that decides how large a fabric
    /// fits.
    pub fn route_table_bytes(&self) -> usize {
        use std::mem::size_of;
        let arenas: usize = self
            .layers
            .iter()
            .map(|t| t.next.capacity() * size_of::<u64>() + t.dist.capacity())
            .sum();
        arenas
            + self.access.capacity() * size_of::<HostAccess>()
            + self.col_root.capacity() * size_of::<NodeId>()
            + self.switches.rows.capacity() * size_of::<SwitchRow>()
    }

    /// Structural invariants of the CSR arenas, for tests and debugging:
    /// offset monotonicity, port-arena symmetry, the switch index (rows
    /// a bijection from the switches onto `0..S`, hosts without one,
    /// every switch within 64 ports), arena sizes, and every mask within
    /// its switch's switch-facing ports. Panics on the first violation.
    pub fn check_csr_invariants(&self) {
        let n = self.node_count();
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
        let s = ix.switches;
        assert_eq!(ix.rows.len(), n, "one switch-row word per node");
        // Per row: the switch's node and its switch-facing ports' bits.
        let mut fabric = vec![None; s];
        for (u, &sr) in ix.rows.iter().enumerate() {
            if self.kinds[u] == NodeKind::Host {
                assert_eq!(sr, SwitchRow::HOST, "host {u} holds a switch row");
                continue;
            }
            let r = sr.row as usize;
            assert!(r < s, "switch {u} has row {r} outside 0..{s}");
            let ports = self.node_ports(NodeId(u as u32));
            assert!(ports.len() <= MAX_DEGREE, "switch {u} has over 64 ports");
            let bits = (0..ports.len())
                .filter(|&p| self.kind(ports[p].peer) == NodeKind::Switch)
                .fold(0u64, |m, p| m | 1 << p);
            assert_eq!(fabric[r].replace((u, bits)), None, "row {r} taken twice");
        }
        assert!(fabric.iter().all(Option::is_some), "rows cover 0..{s}");
        let n_cols = self.col_root.len();
        for (layer, tab) in self.layers.iter().enumerate() {
            assert_eq!(tab.n_switches, s, "layer {layer} row stride");
            assert_eq!(tab.next.len(), s * n_cols, "mask table size");
            assert_eq!(tab.dist.len(), s * n_cols, "dist table size");
            for (r, &(u, bits)) in fabric.iter().flatten().enumerate() {
                for col in 0..n_cols {
                    assert_eq!(
                        tab.next[col * s + r] & !bits,
                        0,
                        "layer {layer} mask ({u}, {col}) names a port that faces no switch"
                    );
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
    /// The port: its bit in its switch's next-hop masks.
    pub(super) port: u16,
}

impl LiveFabric {
    pub(super) fn build(t: &Topology, mask: &FaultMask) -> Self {
        let ix = &t.switches;
        // Every host port faces a switch port: the rest face switches.
        let mut live = Self {
            off: Vec::with_capacity(ix.switches + 1),
            links: Vec::with_capacity(t.ports.len() - 2 * t.hosts.len()),
        };
        live.off.push(0);
        for (u, sr) in ix.rows.iter().enumerate() {
            if sr.is_host() {
                continue;
            }
            let base = t.port_off[u];
            for (p, port) in t.node_ports(NodeId(u as u32)).iter().enumerate() {
                let (peer, p) = (ix.rows[port.peer.0 as usize], p as u16);
                if !peer.is_host()
                    && !mask.link_is_down(NodeId(u as u32), p)
                    && !mask.node_is_down(port.peer)
                {
                    live.links.push(LiveLink {
                        peer: peer.row,
                        gid: base + u32::from(p),
                        port: p,
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

/// Columns one block search settles: one bit each of a `u64`.
const BLOCK: usize = 64;

/// Reusable scratch for [`LayerTables::rebuild_block`], kept across
/// blocks and layers so a rebuild allocates once, not per column: five
/// distance levels and the reached set, each one `u64` per switch row
/// whose bit `j` stands for the block's `j`-th column.
struct BlockScratch {
    /// `levels[(d % 5)·S + row]`: while distance `d` settles, the
    /// columns first reached at that row at `d − 2` and `d − 1`, those
    /// pushed to it at `d` (reduced to the first reached as the row
    /// settles), and those pushed on to `d + 1` and `d + 2`. Weights are
    /// 1 or 2, so five levels hold every one the search still touches.
    levels: Vec<u64>,
    /// `reached[row]`: the columns that reached the row at any distance
    /// settled so far.
    reached: Vec<u64>,
    /// Per live link of the row being settled: the columns its far end
    /// holds at the level one link's weight below.
    hits: Vec<u64>,
}

impl BlockScratch {
    fn new(rows: usize) -> Self {
        Self {
            levels: vec![0; 5 * rows],
            reached: vec![0; rows],
            hits: Vec::new(),
        }
    }
}

impl LayerTables {
    /// Rebuild up to 64 of this layer's columns in one breadth-first
    /// pass over the [`LiveFabric`]: bit `j` of each row's words stands
    /// for column `cols[j]`, whose root row is `roots[cols[j]]` (`None`
    /// when that switch is down: the column is then empty).
    ///
    /// Weights are 1 or 2 (all 1 on layer 0), so the rows first reached
    /// at distance `d` are those one weight-1 link past level `d − 1` or
    /// one weight-2 link past level `d − 2`, less what is already
    /// reached. A row settling bits at `d` pushes them along its live
    /// links into levels `d + w`: a down switch's row still lists its
    /// links to live peers, but no live row lists a link to it, so it is
    /// never reached. Each new bit writes its `dist` and its mask: link
    /// `(r → u, w)`'s bit is set in the columns of `level[d][r] &
    /// level[d − w][u]` — exactly the ports on weighted shortest paths.
    /// A (row, column) pair is settled at one distance only, so its mask
    /// is written once. The search walks links outward from the root,
    /// but the mask and the weights are symmetric per link, so the (u,
    /// port) direction listed suffices.
    ///
    /// # Panics
    /// Panics on a weighted distance over 254.
    fn rebuild_block(
        &mut self,
        live: &LiveFabric,
        weights: &[u8],
        roots: &[Option<u32>],
        cols: &[u32],
        scratch: &mut BlockScratch,
    ) {
        debug_assert!(cols.len() <= BLOCK, "a block holds at most 64 columns");
        let s = self.n_switches;
        let BlockScratch {
            levels,
            reached,
            hits,
        } = scratch;
        debug_assert_eq!(reached.len(), s, "scratch sized for another fabric");
        levels.fill(0);
        reached.fill(0);
        for (j, &c) in cols.iter().enumerate() {
            let c = c as usize;
            self.next[c * s..][..s].fill(0);
            self.dist[c * s..][..s].fill(UNREACHABLE);
            if let Some(root) = roots[c] {
                levels[root as usize] |= 1 << j;
            }
        }
        // Levels d − 2 … d + 2 live in slots d % 5: a settling row reads
        // the two below and pushes into the two above. Two levels in a
        // row that settle nothing push nothing further: the search ends.
        let (mut d, mut idle) = (0u32, 0);
        while idle < 2 {
            let cur = (d % 5) as usize * s;
            let ahead = ((d + 2) % 5) as usize * s;
            levels[ahead..ahead + s].fill(0); // held level d − 3
            idle += 1;
            for r in 0..s {
                let pending = levels[cur + r];
                if pending == 0 {
                    continue;
                }
                let new = pending & !reached[r];
                levels[cur + r] = new;
                if new == 0 {
                    continue;
                }
                idle = 0;
                reached[r] |= new;
                let dist = dist_entry(d);
                // Push `new` one link weight on, and note per link the
                // columns its far end holds one link weight back (bit j
                // of `hits[k]`: link k is on column j's shortest paths).
                // Levels below 0 read as the zeroed slots they occupy.
                let links = live.of(r);
                hits.clear();
                for link in links {
                    let (w, peer) = (u32::from(weights[link.gid as usize]), link.peer as usize);
                    levels[((d + w) % 5) as usize * s + peer] |= new;
                    hits.push(levels[((d + 5 - w) % 5) as usize * s + peer]);
                }
                let mut bits = new;
                while bits != 0 {
                    let j = bits.trailing_zeros();
                    let mut mask = 0;
                    for (link, &hit) in links.iter().zip(hits.iter()) {
                        mask |= (hit >> j & 1) << link.port;
                    }
                    let i = cols[j as usize] as usize * s + r;
                    self.next[i] = mask;
                    self.dist[i] = dist;
                    bits &= bits - 1;
                }
            }
            d += 1;
        }
    }
}
