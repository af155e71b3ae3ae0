use super::*;
use crate::rng::Pcg32;

#[test]
fn fat_tree_counts() {
    // k=4: 16 hosts, 4 pods × (2+2) switches + 4 cores = 20 switches.
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    assert_eq!(t.hosts().len(), 16);
    assert_eq!(t.node_count(), 16 + 8 + 8 + 4);
    // k=10: the paper's 250-server fabric.
    let t10 = Topology::fat_tree(10, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    assert_eq!(t10.hosts().len(), 250);
    assert_eq!(t10.node_count(), 250 + 50 + 50 + 25);
}

#[test]
fn fat_tree_symmetric_ports() {
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = t.hosts().to_vec();
    assert!(t.same_rack(hosts[0], hosts[1]));
    assert!(!t.same_rack(hosts[0], hosts[2]));
}

#[test]
#[should_panic(expected = "self-links")]
fn self_link_panics() {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host);
    t.connect(a, a, 1, 1);
}

/// `RoutingPolicy`'s fields are public, so a struct literal can skip
/// `layered()`'s check; a generator must still refuse it.
#[test]
#[should_panic(expected = "layer count must be in 1..=8")]
fn a_policy_of_no_layers_is_refused() {
    Topology::fat_tree(4, 1, 1, RoutingPolicy { layers: 0, seed: 0 });
}

#[test]
#[should_panic(expected = "layer count must be in 1..=8")]
fn a_policy_over_the_layer_cap_is_refused() {
    let layers = RoutingPolicy::MAX_LAYERS + 1;
    Topology::leaf_spine(2, 1, 1, 1.0, 1, 1, RoutingPolicy { layers, seed: 0 });
}

#[test]
#[should_panic(expected = "the graph is final once routed")]
fn connect_after_routing_is_refused() {
    let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let (a, b) = (t.hosts()[0], t.hosts()[1]);
    t.connect(a, b, 1_000_000_000, 10_000);
}

#[test]
#[should_panic(expected = "the graph is final once routed")]
fn add_node_after_routing_is_refused() {
    let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    t.add_node(NodeKind::Host);
}

#[test]
fn leaf_spine_structure_and_oversub() {
    // 4 leaves x 4 hosts, 2 spines, 2:1 oversubscription.
    let t = Topology::leaf_spine(
        4,
        2,
        4,
        2.0,
        1_000_000_000,
        10_000,
        RoutingPolicy::minimal(),
    );
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
fn jellyfish_regular_connected_deterministic() {
    let t = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 7, RoutingPolicy::minimal());
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
    let t2 = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 7, RoutingPolicy::minimal());
    let t3 = Topology::jellyfish(8, 3, 2, 1_000_000_000, 10_000, 8, RoutingPolicy::minimal());
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
    let jellyfish = |policy| Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3, policy);
    let minimal: usize = count_advertised(&jellyfish(RoutingPolicy::minimal()), 0);
    let t = jellyfish(RoutingPolicy::layered(3, 7));
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
                let min_ports = t.try_next_ports_on(0, NodeId(n), h).to_vec();
                if t.try_next_ports_on(layer, NodeId(n), h)
                    .iter()
                    .any(|p| !min_ports.contains(&p))
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
    let minimal_t =
        Topology::jellyfish(8, 3, 1, 1_000_000_000, 10_000, 3, RoutingPolicy::minimal());
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
    let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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

/// Every layer's distance from every node to every host, beside
/// [`route_tables`].
fn distances(t: &Topology) -> Vec<Option<u32>> {
    (0..t.layer_count())
        .flat_map(|layer| {
            (0..t.node_count() as u32).flat_map(move |n| {
                t.hosts()
                    .iter()
                    .map(move |&h| t.layer_distance(layer, NodeId(n), h))
            })
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

/// Masked recomputes and repairs reuse the weight arenas the first
/// routing built: the tables depend only on (policy, graph), both
/// final once routed, never the fault mask, so fault events must not
/// re-derive one seeded hash per inter-switch link — and the kept
/// tables must be bit-identical to freshly derived ones.
#[test]
fn weight_tables_cached_across_masked_recomputes() {
    let fat_tree = || Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::layered(3, 9));
    let mut t = fat_tree();
    assert_eq!(t.weight_builds(), 1, "the first routing builds them");
    let snapshot = weight_snapshot(&t);
    let mut mask = FaultMask::new();
    mask.fail_node(t.core_switches()[0]);
    t.compute_routes_masked(&mask);
    mask.fail_link(&t, t.hosts()[0], 0);
    t.repair_routes(&mask);
    mask.restore_node(t.core_switches()[0]);
    t.repair_routes(&mask);
    t.compute_routes();
    assert_eq!(
        t.weight_builds(),
        1,
        "fault events rebuilt mask-independent weight tables"
    );
    assert_eq!(weight_snapshot(&t), snapshot, "kept tables diverged");
    // The tables are a pure function of policy + graph: a fresh build
    // under the same policy draws the same ones.
    assert_eq!(weight_snapshot(&fat_tree()), snapshot);
}

#[test]
fn repair_single_link_matches_full_and_rebuilds_few() {
    // Fail one agg–core link on a k=4 fat-tree: only the core's
    // single path into the agg's pod empties, so just that pod's
    // edge switches (2 of 8) need a BFS rebuild. The true core layer is the
    // last-added (k/2)² nodes (`core_switches()` includes aggs).
    let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let healthy = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    assert_eq!(route_tables(&t), route_tables(&healthy));
    // An aggregation switch's death cuts its group's cores off from
    // the pod; the restoration must rebuild exactly that pod's two
    // edge-switch columns (where distances genuinely changed) and
    // still match.
    let mut t2 = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
    let mut lt = Topology::jellyfish(
        12,
        3,
        2,
        1_000_000_000,
        10_000,
        3,
        RoutingPolicy::layered(3, 11),
    );
    let layered_pristine = lt.clone();
    let victim_host = lt.hosts()[0];
    let mut m3 = FaultMask::new();
    m3.fail_link(&lt, victim_host, 0);
    let fail_outcome = lt.repair_routes(&m3);
    assert_eq!(
        (fail_outcome.full, fail_outcome.dests_rebuilt),
        (false, 0),
        "layered host-link failure is a bit flip"
    );
    let mut layered_full = layered_pristine.clone();
    layered_full.compute_routes_masked(&m3);
    assert_eq!(route_tables(&lt), route_tables(&layered_full));
    m3.restore_link(&lt, victim_host, 0);
    let o3 = lt.repair_routes(&m3);
    assert!(!o3.full, "layered restoration must repair incrementally");
    assert_eq!(o3.restored, 1);
    assert_eq!(o3.dests_rebuilt, 0, "bit flip back");
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
    let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
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
fn repair_with_no_delta_is_a_noop() {
    let mut t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let before = route_tables(&t);
    let outcome = t.repair_routes(&FaultMask::new());
    assert!(!outcome.full);
    assert_eq!(outcome.dests_rebuilt, 0);
    assert_eq!(route_tables(&t), before);
}

#[test]
fn repair_host_link_rebuilds_only_that_host() {
    // A dying host uplink cuts exactly one destination, and does it
    // with a bit flip: hosts are leaves nothing routes through, so
    // no column is rebuilt or even touched.
    let pristine = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let victim = pristine.hosts()[0];
    let mut mask = FaultMask::new();
    mask.fail_link(&pristine, victim, 0);
    let mut full = pristine.clone();
    full.compute_routes_masked(&mask);
    let mut repaired = pristine.clone();
    let outcome = repaired.repair_routes(&mask);
    assert!(!outcome.full);
    assert_eq!(outcome.dests_rebuilt, 0);
    assert_eq!(route_tables(&full), route_tables(&repaired));
    let (neighbour, edge) = (pristine.hosts()[1], pristine.edge_switch(victim));
    assert!(repaired.try_next_ports_on(0, neighbour, victim).is_empty());
    assert!(repaired.try_next_ports_on(0, edge, victim).is_empty());
    assert_eq!(repaired.layer_distance(0, edge, victim), None);
    // The rack-mate behind the same ToR keeps its last hop.
    assert_eq!(repaired.try_next_ports_on(0, edge, neighbour).len(), 1);
    assert_eq!(repaired.layer_distance(0, victim, neighbour), None);
    assert_eq!(
        repaired.layer_distance(0, pristine.hosts()[2], neighbour),
        Some(4)
    );
    // Host-only deltas on every layer of a layered fabric — a host
    // link and a host down, then both back — rebuild no column and
    // match a full recompute of every answer and distance.
    let layered = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::layered(3, 5));
    let (link_host, dead_host) = (layered.hosts()[0], layered.hosts()[5]);
    let mut t = layered.clone();
    let mut mask = FaultMask::new();
    mask.fail_link(&t, link_host, 0);
    mask.fail_node(dead_host);
    for step in ["down", "up"] {
        let outcome = t.repair_routes(&mask);
        assert_eq!((outcome.full, outcome.dests_rebuilt), (false, 0), "{step}");
        let mut full = layered.clone();
        full.compute_routes_masked(&mask);
        assert_eq!(route_tables(&t), route_tables(&full), "{step}");
        assert_eq!(distances(&t), distances(&full), "{step}");
        mask.restore_link(&t, link_host, 0);
        mask.restore_node(dead_host);
    }
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

/// Route tables scale with access switches × switches: nine bytes
/// (a next-hop mask and a distance) per (layer, switch, column) on the
/// 5 000-host Jellyfish, exactly. (One column per host took ≈ 575 MB
/// under two layers; node-keyed rows with host-port room in every
/// cell, 28 849 328 B; a `u16` port cell per fabric port with a `u16`
/// length and a `u32` distance, 3 892 332 B.)
#[test]
fn jellyfish_5000_route_table_bytes() {
    let jellyfish = |policy| Topology::jellyfish(250, 12, 20, 1_000_000_000, 10_000, 7, policy);
    let t = jellyfish(RoutingPolicy::minimal());
    assert_eq!(t.hosts().len(), 5000);
    assert_eq!(t.route_table_bytes(), 710_832, "one layer");
    let t = jellyfish(RoutingPolicy::layered(2, 7));
    assert_eq!(t.route_table_bytes(), 1_273_332, "two layers");
    assert!(t.route_table_bytes() <= 1_500_000);
}

/// The same count at RNG scale (flat fabrics of 10⁴+ racks): a
/// 20 000-host, 1 000-switch Jellyfish under two layers.
#[test]
#[ignore = "20 000-host build; run in release"]
fn jellyfish_20000_route_tables_fit_in_64_mb() {
    let t = Topology::jellyfish(
        1000,
        12,
        20,
        1_000_000_000,
        10_000,
        7,
        RoutingPolicy::layered(2, 7),
    );
    assert_eq!(t.hosts().len(), 20_000);
    assert_eq!(
        t.route_table_bytes(),
        18_593_316,
        "60 569 316 B in port cells"
    );
    assert!(t.route_table_bytes() <= 64 << 20);
}

#[test]
fn masked_recompute_leaves_cut_hosts_unroutable() {
    let mut t = Topology::leaf_spine(
        2,
        2,
        2,
        1.0,
        1_000_000_000,
        10_000,
        RoutingPolicy::minimal(),
    );
    let hosts = t.hosts().to_vec();
    let leaf = t.edge_switch(hosts[0]);
    let mut mask = FaultMask::new();
    mask.fail_node(leaf);
    t.compute_routes_masked(&mask);
    // Hosts behind the dead leaf are unreachable...
    assert!(t.try_next_ports_on(0, hosts[2], hosts[0]).is_empty());
    // ...but the other leaf's hosts still reach each other.
    assert!(!t.try_next_ports_on(0, hosts[2], hosts[3]).is_empty());
}

/// The switch index on every family, before and after repair. The
/// Jellyfish numbers its switches first (row = id), so a row/id
/// mix-up would pass there; the fat-tree and the leaf–spine
/// interleave switches with hosts (leaf, its hosts, next leaf, …,
/// spines), so there it cannot.
#[test]
fn csr_invariants_hold_after_build_and_repair() {
    let leaf_spine = Topology::leaf_spine(
        3,
        2,
        2,
        1.0,
        1_000_000_000,
        10_000,
        RoutingPolicy::minimal(),
    );
    assert_eq!(leaf_spine.switches.rows[3].row, 1, "second leaf, id 3");
    let jelly = Topology::jellyfish(
        8,
        3,
        2,
        1_000_000_000,
        10_000,
        7,
        RoutingPolicy::layered(2, 5),
    );
    for mut t in [
        Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal()),
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
        assert_eq!(t.next_ports(a, b).to_vec(), [0]);
        assert_eq!(
            t.next_ports(s, b).to_vec(),
            [1],
            "the switch's access port to b"
        );
        assert_eq!(t.path_hops(a, b), 2);
    };
    routed(&t);
    let mut mask = FaultMask::new();
    mask.fail_link(&t, b, 0);
    t.repair_routes(&mask);
    assert!(t.try_next_ports_on(0, a, b).is_empty());
    mask.restore_link(&t, b, 0);
    t.repair_routes(&mask);
    t.check_csr_invariants();
    routed(&t);
}

/// A next-hop mask has one bit per fabric port: a hub switch with 65
/// switch neighbours is refused when the graph is frozen.
#[test]
#[should_panic(expected = "a route mask holds at most 64")]
fn fabric_degree_over_64_is_refused() {
    let mut t = Topology::new();
    let hub = t.add_node(NodeKind::Switch);
    for _ in 0..65 {
        let leaf = t.add_node(NodeKind::Switch);
        let host = t.add_node(NodeKind::Host);
        t.connect(hub, leaf, 1_000_000_000, 10_000);
        t.connect(leaf, host, 1_000_000_000, 10_000);
    }
    t.compute_routes();
}

/// A distance is one byte: a chain of 256 switches, whose end racks
/// sit 255 links apart, is refused by the route search.
#[test]
#[should_panic(expected = "the most a route distance holds")]
fn distance_over_254_is_refused() {
    let mut t = Topology::new();
    let chain: Vec<NodeId> = (0..256).map(|_| t.add_node(NodeKind::Switch)).collect();
    for pair in chain.windows(2) {
        t.connect(pair[0], pair[1], 1_000_000_000, 10_000);
    }
    for end in [chain[0], chain[255]] {
        let host = t.add_node(NodeKind::Host);
        t.connect(end, host, 1_000_000_000, 10_000);
    }
    t.compute_routes();
}

/// The rank select behind `NextPorts`' indexing finds the `k`-th set
/// bit of masks of every density and width up to all 64 bits, and
/// reads past the last one as out of range.
#[test]
fn select_finds_the_kth_set_bit() {
    let mut rng = Pcg32::new(5);
    let mut masks = vec![0, 1, 0xFFFF, 1 << 15, 1 << 16, u64::MAX, 1 << 63];
    for density in 1..=8u32 {
        for _ in 0..50 {
            let m = (0..density).fold(u64::MAX, |m, _| {
                m & (u64::from(rng.next_u32()) << 32 | u64::from(rng.next_u32()))
            });
            // Masks of at most 16 bits take their own path.
            masks.extend([m, m & 0xFFFF, m & 0xFF]);
        }
    }
    for x in masks {
        let set: Vec<usize> = (0..64).filter(|&b| x >> b & 1 == 1).collect();
        for (k, &b) in set.iter().enumerate() {
            assert_eq!(routes::select(x, k), b, "bit {k} of {x:#x}");
        }
        let width = (u64::BITS - x.leading_zeros()) as usize;
        assert!(
            routes::select(x, set.len()) >= width,
            "{x:#x} past its last bit"
        );
    }
}

/// `NextPorts`' three views of one lookup — iteration, `to_vec` and
/// indexing by rank — agree and ascend, with `len` and `is_empty` to
/// match, for every (layer, node, host) of a layered fat-tree and the
/// small Jellyfish.
#[test]
fn next_ports_iter_index_and_to_vec_agree() {
    for t in [
        Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::layered(2, 3)),
        Topology::jellyfish(
            8,
            3,
            2,
            1_000_000_000,
            10_000,
            1,
            RoutingPolicy::layered(2, 3),
        ),
    ] {
        let mut advertised = 0;
        for layer in 0..t.layer_count() {
            for n in 0..t.node_count() as u32 {
                for &h in t.hosts() {
                    let next = t.try_next_ports_on(layer, NodeId(n), h);
                    let ports = next.to_vec();
                    assert_eq!(next.iter().collect::<Vec<_>>(), ports);
                    assert_eq!(
                        (next.len(), next.is_empty()),
                        (ports.len(), ports.is_empty())
                    );
                    for (k, &p) in ports.iter().enumerate() {
                        assert_eq!(next[k], p, "rank {k} at ({layer}, {n}, {})", h.0);
                    }
                    assert!(ports.windows(2).all(|w| w[0] < w[1]), "{ports:?} ascends");
                    advertised += ports.len();
                }
            }
        }
        assert!(advertised > 0);
    }
}

/// `switch_links` lists every switch–switch link exactly once, lower
/// end first, in ascending order, on every generator family; the fault
/// key of a link is that entry whichever end names it.
#[test]
fn switch_links_list_each_link_once_lower_end_first() {
    use crate::fault::ElementKey;
    for t in [
        Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal()),
        Topology::leaf_spine(
            4,
            3,
            2,
            2.0,
            1_000_000_000,
            10_000,
            RoutingPolicy::minimal(),
        ),
        Topology::jellyfish(12, 4, 2, 1_000_000_000, 10_000, 5, RoutingPolicy::minimal()),
    ] {
        let is_switch = |n: NodeId| t.kind(n) == NodeKind::Switch;
        let mut keyed = std::collections::BTreeSet::new();
        for n in (0..t.node_count() as u32)
            .map(NodeId)
            .filter(|&n| is_switch(n))
        {
            for (p, port) in t.node_ports(n).iter().enumerate() {
                if is_switch(port.peer) {
                    let key = ElementKey::link(&t, n, p as u16);
                    assert_eq!(key, ElementKey::link(&t, port.peer, port.peer_port));
                    keyed.insert(key);
                }
            }
        }
        let listed: Vec<ElementKey> = t
            .switch_links()
            .inspect(|&(n, p)| assert!(n < t.port(n, p).peer, "lower end first"))
            .map(|(n, p)| ElementKey::Link(n.0, p))
            .collect();
        assert_eq!(listed, Vec::from_iter(keyed), "each link once, ascending");
    }
}

/// `pinned_path` is what forwarding does: one per-flow-ECMP packet
/// transmits on exactly the switch ports the replay's hops name, on a
/// minimal fat-tree and on a two-layer Jellyfish (where half the flows
/// ride layer 1, so a replay of layer 0 alone would be caught).
#[test]
fn pinned_path_is_the_path_ecmp_forwarding_takes() {
    use crate::fixtures::{data_pkt, echo_sim};
    use crate::{FlowId, Packet, Recorder, SimConfig, SimTime, TelemetryConfig};
    let jelly = Topology::jellyfish(
        12,
        4,
        2,
        1_000_000_000,
        10_000,
        5,
        RoutingPolicy::layered(2, 9),
    );
    for t in [
        Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal()),
        jelly,
    ] {
        let hosts = t.hosts();
        for i in 0..40 {
            let (src, dst) = (hosts[i % hosts.len()], hosts[(3 * i + 5) % hosts.len()]);
            let flow = FlowId(1_000 + 77 * i as u64);
            let path = t.pinned_path(flow, src, dst);
            assert_eq!((path[0], path[path.len() - 1]), (src, dst));
            let mut hops: Vec<(u32, u16)> = path
                .windows(2)
                .filter(|hop| t.kind(hop[0]) == NodeKind::Switch)
                .map(|hop| {
                    let p = t.node_ports(hop[0]).iter().position(|p| p.peer == hop[1]);
                    (hop[0].0, p.unwrap() as u16)
                })
                .collect();
            let recorder = Some(Recorder::new(TelemetryConfig::default()));
            let mut sim = echo_sim(t.clone(), SimConfig::classic(1), recorder);
            let pkt = Packet {
                flow,
                ..data_pkt(src, dst, 0)
            };
            sim.agent_mut(src).to_send.push(pkt);
            sim.schedule_timer(src, SimTime::ZERO, 0);
            sim.run_to_completion();
            sim.finish_telemetry();
            assert_eq!(sim.agent(dst).received.len(), 1, "the packet arrives");
            let buckets = sim.telemetry().as_ref().unwrap().buckets();
            let ports = buckets
                .iter()
                .flat_map(|b| &b.ports)
                .filter(|s| s.enqueued > 0);
            let mut sent: Vec<(u32, u16)> = ports.map(|s| (s.node, s.port)).collect();
            hops.sort_unstable();
            sent.sort_unstable();
            assert_eq!(sent, hops, "flow {} from {} to {}", flow.0, src.0, dst.0);
        }
    }
}

/// FNV-1a over a mixer's edge list, endpoints as 64-bit words in order.
fn edge_list_hash(edges: &[(usize, usize)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(a, b) in edges {
        for w in [a as u64, b as u64] {
            for byte in w.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// The degree-12 mixer's edge lists, in order: the 5 000-host
/// Jellyfish at the three scenario seeds of a benchmark panel at
/// seed 1, and the 20 000-host one.
#[test]
fn mixer_edge_lists_are_pinned() {
    let panel = |i: u64| 1u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let got = [
        edge_list_hash(&build::random_regular_edges(250, 12, panel(0))),
        edge_list_hash(&build::random_regular_edges(250, 12, panel(1))),
        edge_list_hash(&build::random_regular_edges(250, 12, panel(2))),
        edge_list_hash(&build::random_regular_edges(1000, 12, 7)),
    ];
    let golden = [
        0xF458_07F4_FA96_D5C5,
        0x5092_C8E4_129D_3245,
        0x09A9_1DDC_2810_CA25,
        0xD9A2_35F0_9E45_84ED,
    ];
    assert_eq!(got, golden, "mixer edge lists {got:#018x?}");
}

/// The mixer's output is a simple, connected, d-regular graph, at even
/// and odd degrees alike.
#[test]
fn mixer_output_is_regular_simple_and_connected() {
    for (n, d) in [(20, 6), (41, 6), (16, 7), (30, 7), (26, 12), (60, 12)] {
        for seed in 0..8u64 {
            let edges = build::random_regular_edges(n, d, seed);
            assert_eq!(edges.len(), n * d / 2, "({n}, {d}, {seed}) edge count");
            let mut degree = vec![0usize; n];
            let mut seen = std::collections::BTreeSet::new();
            // Union-find over the edges: one root left means connected.
            let mut parent: Vec<usize> = (0..n).collect();
            fn root(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for &(a, b) in &edges {
                assert!(
                    a < b && b < n,
                    "({n}, {d}, {seed}) edge ({a}, {b}) not normalised"
                );
                assert!(
                    seen.insert((a, b)),
                    "({n}, {d}, {seed}) duplicate edge ({a}, {b})"
                );
                degree[a] += 1;
                degree[b] += 1;
                let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                parent[ra] = rb;
            }
            assert!(
                degree.iter().all(|&k| k == d),
                "({n}, {d}, {seed}) not {d}-regular"
            );
            let roots = (0..n).filter(|&x| root(&mut parent, x) == x).count();
            assert_eq!(roots, 1, "({n}, {d}, {seed}) disconnected");
        }
    }
}
