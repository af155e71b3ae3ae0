//! Fabric generators: fat-tree, leaf–spine and Jellyfish.

use crate::rng::Pcg32;

use super::{NodeId, NodeKind, RoutingPolicy, Topology};

impl Topology {
    /// Build a k-ary fat-tree (k even): k pods of (k/2 edge + k/2
    /// aggregation) switches, (k/2)² core switches, and k/2 hosts per
    /// edge switch — k²/4 per pod, k³/4 in all. All links share
    /// `rate_bps`/`prop_ns` (the paper: 1 Gbps, 10 µs). Routed once,
    /// under `policy`.
    // Index loops mirror the fat-tree's (pod, column) coordinate system;
    // iterator chains over the nested vecs obscure the symmetry.
    #[allow(clippy::needless_range_loop)]
    pub fn fat_tree(k: usize, rate_bps: u64, prop_ns: u64, policy: RoutingPolicy) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree requires even k >= 2"
        );
        let half = k / 2;
        let mut t = Topology::with_policy(policy);

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
            for _ in 0..half {
                let core = t.add_node(NodeKind::Switch);
                for pod in 0..k {
                    t.connect(aggs[pod][g], core, rate_bps, prop_ns);
                }
            }
        }
        t.compute_routes();
        t
    }

    /// Build a two-tier leaf–spine fabric: `leaves` leaf switches with
    /// `hosts_per_leaf` hosts each, every leaf connected to every one of
    /// `spines` spine switches. Host links run at `rate_bps`; each
    /// uplink runs at `hosts_per_leaf × rate_bps / (spines × oversub)`,
    /// so `oversub = 1` is non-blocking and `oversub = 4` is the classic
    /// 4:1 oversubscribed data-centre fabric (and makes the fabric
    /// heterogeneous — uplinks slower than host links). Routed once,
    /// under `policy`.
    pub fn leaf_spine(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        oversub: f64,
        rate_bps: u64,
        prop_ns: u64,
        policy: RoutingPolicy,
    ) -> Topology {
        assert!(
            leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1,
            "leaf-spine needs >= 2 leaves, >= 1 spine, >= 1 host per leaf"
        );
        assert!(oversub > 0.0, "oversubscription ratio must be positive");
        let uplink_bps =
            ((hosts_per_leaf as f64 * rate_bps as f64) / (spines as f64 * oversub)).round() as u64;
        assert!(uplink_bps > 0, "oversubscription leaves uplinks at 0 bps");
        let mut t = Topology::with_policy(policy);
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
    /// (simple and connected: stub matching with deterministic retries
    /// below degree 6, seeded double-edge swaps over a circulant from
    /// degree 6 up), each hosting `hosts_per_switch` hosts. All links share
    /// `rate_bps`/`prop_ns`. Same seed ⇒ identical graph. Routed once,
    /// under `policy`.
    pub fn jellyfish(
        switches: usize,
        net_degree: usize,
        hosts_per_switch: usize,
        rate_bps: u64,
        prop_ns: u64,
        seed: u64,
        policy: RoutingPolicy,
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
        let mut t = Topology::with_policy(policy);
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
}

/// A simple connected random regular graph, seeded and deterministic.
///
/// Low degrees use stub matching: shuffle every switch's stubs, pair
/// them up, and retry the whole shuffle (with a deterministically
/// perturbed seed) on self-loops, duplicate edges (found in an
/// [`EdgeSet`]), or a disconnected result. The no-collision odds decay
/// like `exp(-d²/4)`, so from degree 6 up (the 5k-host Jellyfish runs
/// at degree 12) the whole graph is built by [`swapped_regular_edges`]
/// instead.
pub(super) fn random_regular_edges(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    if d >= 6 {
        return swapped_regular_edges(n, d, seed);
    }
    'attempt: for attempt in 0..10_000u64 {
        let mut rng = Pcg32::new(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| (0..d).map(move |_| i)).collect();
        rng.shuffle(&mut stubs);
        let mut seen = EdgeSet::new(n);
        let mut edges = Vec::with_capacity(n * d / 2);
        for pair in stubs.chunks(2) {
            let edge = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if edge.0 == edge.1 || !seen.insert(edge) {
                continue 'attempt;
            }
            edges.push(edge);
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
/// result is connected. A swap is tested against the present edges in
/// an [`EdgeSet`] bit matrix, O(1) per test.
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
    let mut present = EdgeSet::new(n);
    for &e in &edges {
        let fresh = present.insert(e);
        debug_assert!(fresh, "circulant base must be simple");
    }
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
            if present.contains(na) || present.contains(nb) {
                continue;
            }
            present.remove(edges[i]);
            present.remove(edges[j]);
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

/// The edges of a simple graph on nodes `0..n`, as an `n × n` bit
/// matrix over normalised `(low, high)` pairs: O(1) membership for the
/// regular-graph builders (stub matching's duplicate check, the mixer's
/// swap test). 125 KB at 1 000 switches.
struct EdgeSet {
    n: usize,
    bits: Vec<u64>,
}

impl EdgeSet {
    fn new(n: usize) -> Self {
        Self {
            n,
            bits: vec![0; (n * n).div_ceil(64)],
        }
    }

    /// Word index and bit mask of a normalised edge.
    fn at(&self, (a, b): (usize, usize)) -> (usize, u64) {
        debug_assert!(a < b && b < self.n, "edge ({a}, {b}) not normalised");
        let i = a * self.n + b;
        (i / 64, 1 << (i % 64))
    }

    fn contains(&self, e: (usize, usize)) -> bool {
        let (w, m) = self.at(e);
        self.bits[w] & m != 0
    }

    /// Add `e`; false when it was already present.
    fn insert(&mut self, e: (usize, usize)) -> bool {
        let (w, m) = self.at(e);
        let fresh = self.bits[w] & m == 0;
        self.bits[w] |= m;
        fresh
    }

    fn remove(&mut self, e: (usize, usize)) {
        let (w, m) = self.at(e);
        self.bits[w] &= !m;
    }
}
