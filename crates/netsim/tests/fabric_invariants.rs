//! Property tests on fabric invariants: routing consistency and
//! multicast tree correctness over randomized inputs — on fat-trees,
//! leaf–spine fabrics, and Jellyfish random graphs, healthy and under
//! single failures.

// The proptest shim's declarative macro recurses once per test; eight
// tests in one block need more headroom than the default 128.
#![recursion_limit = "256"]

use netsim::{FaultMask, NodeId, RoutingPolicy, Topology};
use proptest::prelude::*;

fn fat_tree_ks() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(6usize), Just(8usize)]
}

/// A generator covering all three topology families at proptest-sized
/// scales: (topology, human-readable label).
fn any_fabric() -> impl Strategy<Value = (Topology, String)> {
    prop_oneof![
        fat_tree_ks().prop_map(|k| (
            Topology::fat_tree(k, 1_000_000_000, 10_000, RoutingPolicy::minimal()),
            format!("fat_tree k={k}")
        )),
        (
            2usize..=4,
            1usize..=3,
            1usize..=4,
            prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)]
        )
            .prop_map(|(leaves, spines, hpl, oversub)| (
                Topology::leaf_spine(
                    leaves,
                    spines,
                    hpl,
                    oversub,
                    1_000_000_000,
                    10_000,
                    RoutingPolicy::minimal()
                ),
                format!("leaf_spine {leaves}x{spines}x{hpl} {oversub}:1")
            )),
        // Even switch counts only: stub matching needs switches × degree
        // even, and the degree here is 3.
        (3usize..=5, 1usize..=2, any::<u64>()).prop_map(|(half, hps, seed)| (
            Topology::jellyfish(
                half * 2,
                3,
                hps,
                1_000_000_000,
                10_000,
                seed,
                RoutingPolicy::minimal()
            ),
            format!("jellyfish sw={} hps={hps} seed={seed}", half * 2)
        )),
    ]
}

/// Walk advertised next-hops from `a` to `b` under a seeded picker;
/// returns the hop count, failing the walk if it exceeds `bound`.
fn random_walk(
    t: &Topology,
    rng: &mut netsim::Pcg32,
    a: NodeId,
    b: NodeId,
    bound: usize,
) -> Result<usize, TestCaseError> {
    let mut at = a;
    let mut steps = 0usize;
    while at != b {
        let choices = t.next_ports(at, b);
        let pick = choices[rng.below(choices.len() as u64) as usize];
        at = t.port(at, pick).peer;
        steps += 1;
        prop_assert!(steps <= bound, "walk exceeded {} hops", bound);
    }
    Ok(steps)
}

/// A seeded random fail/restore process over *every* element of a
/// fabric — fabric links and access links, hosts, ToRs and transit
/// switches — shared by the properties that replay fault histories.
struct FaultWalk {
    links: Vec<(NodeId, u16)>,
    mask: FaultMask,
    failed_links: Vec<(NodeId, u16)>,
    failed_nodes: Vec<NodeId>,
}

impl FaultWalk {
    fn new(t: &Topology) -> Self {
        let mut links = Vec::new();
        for n in 0..t.node_count() as u32 {
            for (pi, p) in t.node_ports(NodeId(n)).iter().enumerate() {
                if p.peer.0 > n {
                    links.push((NodeId(n), pi as u16));
                }
            }
        }
        Self {
            links,
            mask: FaultMask::new(),
            failed_links: Vec::new(),
            failed_nodes: Vec::new(),
        }
    }

    fn fail_link(&mut self, t: &Topology, node: NodeId, port: u16) {
        if !self.mask.link_is_down(node, port) {
            self.mask.fail_link(t, node, port);
            self.failed_links.push((node, port));
        }
    }

    fn fail_node(&mut self, node: NodeId) {
        if !self.mask.node_is_down(node) {
            self.mask.fail_node(node);
            self.failed_nodes.push(node);
        }
    }

    /// One random mask op: restore a failed element (half the time,
    /// when there is one), else fail a random link or a random node.
    fn step(&mut self, t: &Topology, rng: &mut netsim::Pcg32) {
        let any_failed = !(self.failed_links.is_empty() && self.failed_nodes.is_empty());
        if any_failed && rng.below(2) == 0 {
            let pick_link = !self.failed_links.is_empty()
                && (self.failed_nodes.is_empty() || rng.below(2) == 0);
            if pick_link {
                let i = rng.below(self.failed_links.len() as u64) as usize;
                let (n, p) = self.failed_links.swap_remove(i);
                self.mask.restore_link(t, n, p);
            } else {
                let i = rng.below(self.failed_nodes.len() as u64) as usize;
                self.mask.restore_node(self.failed_nodes.swap_remove(i));
            }
        } else if rng.below(2) == 0 {
            let (n, p) = self.links[rng.below(self.links.len() as u64) as usize];
            self.fail_link(t, n, p);
        } else {
            self.fail_node(NodeId(rng.below(t.node_count() as u64) as u32));
        }
    }
}

/// The independent **per-host** reference: one textbook Dijkstra per
/// destination host over the *full* graph — hosts are ordinary nodes
/// here, access links ordinary links — using only the public
/// port/weight accessors, so it shares nothing with the switch-keyed
/// arenas (or their arithmetic last hop) that it checks. Returns
/// `(next_ports[node][host_idx], dist[node][host_idx])`.
#[allow(clippy::type_complexity)]
fn reference_layer(
    t: &Topology,
    mask: &FaultMask,
    layer: usize,
) -> (Vec<Vec<Vec<u16>>>, Vec<Vec<Option<u32>>>) {
    use std::cmp::Reverse;
    let n = t.node_count();
    let hosts = t.hosts().to_vec();
    let mut ports_ref = vec![vec![Vec::new(); hosts.len()]; n];
    let mut dist_ref = vec![vec![None; hosts.len()]; n];
    for (h_idx, &host) in hosts.iter().enumerate() {
        let mut dist = vec![u32::MAX; n];
        if !mask.node_is_down(host) {
            dist[host.0 as usize] = 0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(Reverse((0u32, host.0)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for (pi, p) in t.node_ports(NodeId(u)).iter().enumerate() {
                    if mask.link_is_down(NodeId(u), pi as u16) || mask.node_is_down(p.peer) {
                        continue;
                    }
                    let nd = d + u32::from(t.layer_link_weight(layer, NodeId(u), pi as u16));
                    if nd < dist[p.peer.0 as usize] {
                        dist[p.peer.0 as usize] = nd;
                        heap.push(Reverse((nd, p.peer.0)));
                    }
                }
            }
        }
        for u in 0..n {
            let node = NodeId(u as u32);
            dist_ref[u][h_idx] = (dist[u] != u32::MAX).then_some(dist[u]);
            if dist[u] == u32::MAX || node == host || mask.node_is_down(node) {
                continue;
            }
            for (pi, p) in t.node_ports(node).iter().enumerate() {
                if mask.link_is_down(node, pi as u16) || mask.node_is_down(p.peer) {
                    continue;
                }
                let dp = dist[p.peer.0 as usize];
                let w = u32::from(t.layer_link_weight(layer, node, pi as u16));
                if dp != u32::MAX && dp + w == dist[u] {
                    ports_ref[u][h_idx].push(pi as u16);
                }
            }
        }
    }
    (ports_ref, dist_ref)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The switch-keyed CSR arenas plus the arithmetic last hop answer
    /// every `(layer, node, host)` query exactly like the per-host
    /// reference, on every topology family under 1–3-layer policies and
    /// mixed fail/restore sequences that include access-link, host and
    /// ToR faults: same next-port sets (in the same ascending order),
    /// same distances, offsets monotone, and no dangling indices (the
    /// latter two via `check_csr_invariants`, which panics on
    /// violation).
    #[test]
    fn csr_tables_match_reference_nested_build(
        fabric in any_fabric(),
        layers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (mut t, label) = fabric;
        if layers > 1 {
            t.set_policy(RoutingPolicy::layered(layers, seed ^ 0x0C5A));
            t.compute_routes();
        }
        let mut rng = netsim::Pcg32::new(seed);
        let hosts = t.hosts().to_vec();
        let mut walk = FaultWalk::new(&t);
        let mut any_host = || hosts[rng.below(hosts.len() as u64) as usize];
        // Every case opens with the three host-side faults the tables
        // answer arithmetically — an access link, a host node, a ToR —
        // then wanders through random failures and restorations.
        let forced = [any_host(), any_host(), t.edge_switch(any_host())];
        for step in 0..7 {
            match step {
                0 => walk.fail_link(&t, forced[0], 0),
                1 | 2 => walk.fail_node(forced[step]),
                _ => walk.step(&t, &mut rng),
            }
            let mask = &walk.mask;
            t.repair_routes(mask);
            t.check_csr_invariants();
            for layer in 0..t.layer_count() {
                let (ports_ref, dist_ref) = reference_layer(&t, mask, layer);
                for n in 0..t.node_count() as u32 {
                    for (h_idx, &h) in hosts.iter().enumerate() {
                        prop_assert_eq!(
                            t.try_next_ports_on(layer, NodeId(n), h),
                            &ports_ref[n as usize][h_idx][..],
                            "{}: layer {} node {} dest {} ports diverged at step {}",
                            label, layer, n, h.0, step
                        );
                        prop_assert_eq!(
                            t.layer_distance(layer, NodeId(n), h),
                            dist_ref[n as usize][h_idx],
                            "{}: layer {} node {} dest {} distance diverged at step {}",
                            label, layer, n, h.0, step
                        );
                    }
                }
            }
        }
    }

    /// Every host pair is connected by shortest paths whose hop count is
    /// one of the three fat-tree distances (2, 4, 6).
    #[test]
    fn path_lengths_are_fat_tree_distances(k in fat_tree_ks(), pair_seed in any::<u64>()) {
        let t = Topology::fat_tree(k, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        let hosts = t.hosts().to_vec();
        let mut rng = netsim::Pcg32::new(pair_seed);
        for _ in 0..16 {
            let a = hosts[rng.below(hosts.len() as u64) as usize];
            let b = hosts[rng.below(hosts.len() as u64) as usize];
            if a == b { continue; }
            let hops = t.path_hops(a, b);
            prop_assert!(hops == 2 || hops == 4 || hops == 6, "odd hop count {}", hops);
        }
    }

    /// next_ports always step strictly closer: following any advertised
    /// port from any node reaches the destination without loops.
    #[test]
    fn all_multipath_choices_reach_destination(k in fat_tree_ks(), seed in any::<u64>()) {
        let t = Topology::fat_tree(k, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        let hosts = t.hosts().to_vec();
        let mut rng = netsim::Pcg32::new(seed);
        let a = hosts[rng.below(hosts.len() as u64) as usize];
        let b = hosts[(rng.below(hosts.len() as u64 - 1) as usize + 1 + t.host_index(a))
            % hosts.len()];
        if a == b { return Ok(()); }
        // Random walk over advertised next hops must terminate.
        let mut at = a;
        let mut steps = 0;
        while at != b {
            let choices = t.next_ports(at, b);
            let pick = choices[rng.below(choices.len() as u64) as usize];
            at = t.port(at, pick).peer;
            steps += 1;
            prop_assert!(steps <= 6, "walk exceeded fat-tree diameter");
        }
    }

    /// A multicast tree delivers exactly one copy per member and nothing
    /// to non-members, for arbitrary member sets.
    #[test]
    fn multicast_tree_exactness(k in fat_tree_ks(), seed in any::<u64>()) {
        use netsim::{Agent, Ctx, Dest, FlowId, Packet, SimConfig, SimPayload, SimTime, Simulator};

        #[derive(Debug, Clone)]
        struct P;
        impl SimPayload for P {
            fn is_control(&self) -> bool { false }
            fn trim(&self) -> Option<Self> { Some(P) }
        }
        struct Counter { got: u64, send_to: Option<netsim::GroupId> }
        impl Agent<P> for Counter {
            fn on_packet(&mut self, _p: Packet<P>, _c: &mut Ctx<P>) { self.got += 1; }
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<P>) {
                let g = self.send_to.expect("only the sender gets a timer");
                ctx.send(Packet {
                    src: ctx.node, dst: Dest::Group(g), flow: FlowId(1), size: 1500, payload: P,
                });
            }
        }

        let t = Topology::fat_tree(k, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        let hosts = t.hosts().to_vec();
        let mut rng = netsim::Pcg32::new(seed);
        let sender = hosts[rng.below(hosts.len() as u64) as usize];
        let n_members = 1 + rng.below(6) as usize;
        let mut members = Vec::new();
        while members.len() < n_members {
            let m = hosts[rng.below(hosts.len() as u64) as usize];
            if m != sender && !members.contains(&m) {
                members.push(m);
            }
        }
        let mut sim: Simulator<P, Counter> = Simulator::new(t, SimConfig::ndp(seed));
        for &h in &hosts {
            sim.set_agent(h, Counter { got: 0, send_to: None });
        }
        let gid = sim.register_group(sender, &members);
        sim.agent_mut(sender).send_to = Some(gid);
        sim.schedule_timer(sender, SimTime::ZERO, 0);
        sim.run_to_completion();
        for &h in &hosts {
            let expected = u64::from(members.contains(&h));
            prop_assert_eq!(sim.agent(h).got, expected, "host {} copies", h.0);
        }
    }

    /// Every topology family keeps its port tables symmetric: the peer's
    /// back-pointer names exactly the port we came from.
    #[test]
    fn port_symmetry_all_topologies(fabric in any_fabric()) {
        let (t, label) = fabric;
        for n in 0..t.node_count() as u32 {
            for (i, p) in t.node_ports(NodeId(n)).iter().enumerate() {
                let back = t.port(p.peer, p.peer_port);
                prop_assert_eq!(back.peer, NodeId(n), "{}: asymmetric port", label);
                prop_assert_eq!(back.peer_port as usize, i, "{}: wrong back-port", label);
            }
        }
    }

    /// All-pairs reachability and loop-free next_ports on every topology
    /// family: a random walk over the advertised ports always reaches
    /// the destination within the node-count bound.
    #[test]
    fn all_pairs_routable_all_topologies(fabric in any_fabric(), seed in any::<u64>()) {
        let (t, label) = fabric;
        let mut rng = netsim::Pcg32::new(seed);
        let hosts = t.hosts().to_vec();
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    random_walk(&t, &mut rng, a, b, t.node_count())?;
                }
            }
        }
        let _ = label;
    }

    /// Every routing layer is loop-free and reaches every host within
    /// the 2× stretch bound, on every topology family: a random walk
    /// over any layer's advertised ports terminates at the destination
    /// in at most twice the minimal hop count (weights are in {1, 2},
    /// so the weighted-distance potential bounds the walk), and layer 0
    /// is bit-identical to plain minimal routing.
    #[test]
    fn layered_routes_loop_free_within_stretch(
        fabric in any_fabric(),
        layers in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let (mut t, label) = fabric;
        let minimal = t.clone();
        t.set_policy(RoutingPolicy::layered(layers, seed));
        t.compute_routes();
        prop_assert_eq!(t.layer_count(), layers, "{}", label);
        let hosts = t.hosts().to_vec();
        // Layer 0 stays the minimal route set, bit for bit.
        for n in 0..t.node_count() as u32 {
            for &h in &hosts {
                prop_assert_eq!(
                    t.try_next_ports_on(0, NodeId(n), h),
                    minimal.try_next_ports_on(0, NodeId(n), h),
                    "{}: layer 0 diverged from minimal at node {}", label, n
                );
            }
        }
        let mut rng = netsim::Pcg32::new(seed ^ 0x57AE);
        for layer in 0..layers {
            for &a in &hosts {
                for &b in &hosts {
                    if a == b { continue; }
                    let bound = 2 * minimal.path_hops(a, b) as usize;
                    let mut at = a;
                    let mut steps = 0usize;
                    while at != b {
                        let choices = t.try_next_ports_on(layer, at, b);
                        prop_assert!(
                            !choices.is_empty(),
                            "{}: layer {} cannot reach {} from {}", label, layer, b.0, at.0
                        );
                        let pick = choices[rng.below(choices.len() as u64) as usize];
                        at = t.port(at, pick).peer;
                        steps += 1;
                        prop_assert!(
                            steps <= bound,
                            "{}: layer {} walk {}->{} exceeded 2x stretch ({} hops)",
                            label, layer, a.0, b.0, bound
                        );
                    }
                }
            }
        }
    }

    /// Incremental route repair is exact: growing the fault mask one
    /// random failure at a time and calling `repair_routes` yields
    /// bit-identical route tables to a from-scratch
    /// `compute_routes_masked` of the accumulated mask, on every
    /// topology family.
    #[test]
    fn incremental_repair_matches_full_recompute(fabric in any_fabric(), seed in any::<u64>()) {
        let (pristine, label) = fabric;
        let mut rng = netsim::Pcg32::new(seed);
        // Candidate failures: switch-switch links and host-free switches
        // (host and edge failures legally disconnect hosts; they are
        // covered by the host-link unit test and excluded here to keep
        // the walk assertions meaningful).
        let switch_links: Vec<(NodeId, u16)> = pristine.switch_links().collect();
        let mut mask = FaultMask::new();
        let mut repaired = pristine.clone();
        let steps = 1 + rng.below(2) as usize;
        for step in 0..steps {
            if switch_links.is_empty() { return Ok(()); }
            let (node, port) = switch_links[rng.below(switch_links.len() as u64) as usize];
            mask.fail_link(&repaired, node, port);
            repaired.repair_routes(&mask);
            let mut full = pristine.clone();
            full.compute_routes_masked(&mask);
            for n in 0..pristine.node_count() as u32 {
                for &h in pristine.hosts() {
                    prop_assert_eq!(
                        repaired.try_next_ports_on(0, NodeId(n), h),
                        full.try_next_ports_on(0, NodeId(n), h),
                        "{}: node {} dest {} diverged at step {}", label, n, h.0, step
                    );
                }
            }
        }
    }

    /// Restore repair and flap coalescing are exact on every layer: an
    /// arbitrary seeded sequence of failures *and restorations* — links
    /// (fabric and host links), switches (ToRs included), and whole
    /// hosts —
    /// applied one `repair_routes` delta at a time yields bit-identical
    /// route tables, per layer, to a from-scratch
    /// `compute_routes_masked` of the accumulated mask, on every
    /// topology family under a 1–3-layer policy. (A down+up pair
    /// landing in one delta is the coalesced-flap case: the repair must
    /// see it as a no-op.)
    #[test]
    fn restore_repair_matches_full_recompute(
        fabric in any_fabric(),
        layers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (mut pristine, label) = fabric;
        pristine.set_policy(RoutingPolicy::layered(layers, seed ^ 0xFA7));
        pristine.compute_routes();
        let mut rng = netsim::Pcg32::new(seed);
        let mut walk = FaultWalk::new(&pristine);
        let mut repaired = pristine.clone();
        for step in 0..4 {
            // Each step mutates the mask by one or two ops (two ops in
            // one delta covers fail+restore coalescing) then repairs.
            for _ in 0..1 + rng.below(2) {
                walk.step(&pristine, &mut rng);
            }
            let mask = &walk.mask;
            repaired.repair_routes(mask);
            let mut full = pristine.clone();
            full.compute_routes_masked(mask);
            for layer in 0..layers {
                for n in 0..pristine.node_count() as u32 {
                    for &h in pristine.hosts() {
                        prop_assert_eq!(
                            repaired.try_next_ports_on(layer, NodeId(n), h),
                            full.try_next_ports_on(layer, NodeId(n), h),
                            "{}: layer {} node {} dest {} diverged at step {}",
                            label, layer, n, h.0, step
                        );
                    }
                }
            }
        }
    }

    /// Any single fabric-link or transit/aggregation-switch failure in a
    /// k ≥ 4 fat-tree leaves every host pair routable after a masked
    /// recompute (edge switches are excluded: killing one provably
    /// isolates its rack).
    #[test]
    fn fat_tree_single_failure_keeps_all_pairs_routable(
        k in prop_oneof![Just(4usize), Just(6usize)],
        seed in any::<u64>(),
    ) {
        let mut t = Topology::fat_tree(k, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        let mut rng = netsim::Pcg32::new(seed);
        // Candidates: all switch-switch links, plus all switches that
        // serve no hosts directly is too narrow (aggs have no hosts but
        // cores too) — any switch except the edge layer qualifies.
        let switch_links: Vec<(NodeId, u16)> = t.switch_links().collect();
        let non_edge_switches = t.core_switches();
        let mut mask = FaultMask::new();
        let total = switch_links.len() + non_edge_switches.len();
        let pick = rng.below(total as u64) as usize;
        if pick < switch_links.len() {
            let (node, port) = switch_links[pick];
            mask.fail_link(&t, node, port);
        } else {
            mask.fail_node(non_edge_switches[pick - switch_links.len()]);
        }
        t.compute_routes_masked(&mask);
        let hosts = t.hosts().to_vec();
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    prop_assert!(
                        !t.try_next_ports_on(0, a, b).is_empty(),
                        "pair {}->{} unroutable after single failure", a.0, b.0
                    );
                    random_walk(&t, &mut rng, a, b, t.node_count())?;
                }
            }
        }
    }
}
