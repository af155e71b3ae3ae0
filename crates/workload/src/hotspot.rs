//! Network-hotspot experiment (the paper's §3 "current work": behaviour
//! "under ... the existence of network hotspots").
//!
//! A fraction of the core-layer links is degraded to a fraction of line
//! rate mid-fabric. Per-packet spraying should route *around* the slow
//! links statistically (a sprayed flow loses only the capacity share of
//! the degraded paths), while per-flow ECMP pins the unlucky flows onto
//! them for their whole lifetime — the "embracing path redundancy"
//! claim, made measurable.

use netsim::{FaultAction, FaultMask, FaultPlan, NodeId, NodeKind, Pcg32, SimTime, Topology};

use crate::runner::{Fabric, Run, Transport};
use crate::scenario::{LogicalSession, Pattern};

/// Hotspot scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotspotScenario {
    /// Number of parallel unicast transfers (distinct host pairs).
    pub transfers: usize,
    /// Object size per transfer.
    pub object_bytes: usize,
    /// Fraction of switch-to-switch links degraded (0..1). For link-down
    /// runs it is an upper bound: a drawn link whose loss would
    /// disconnect the switch graph stays healthy.
    pub degraded_frac: f64,
    /// Degraded links run at this fraction of line rate. Zero means the
    /// selected links suffer *detected* link-down faults (the fabric
    /// reroutes around them); any other value is a silent rate
    /// degradation the control plane never notices.
    pub degraded_rate_frac: f64,
    /// Seed.
    pub seed: u64,
}

impl HotspotScenario {
    /// The run on `fabric` under `transport`: disjoint random host
    /// pairs, all starting together (worst case for pinned paths: no
    /// chance to average over flows), over a fabric whose degraded links
    /// are a [`FaultPlan`] at t = 0 — the single rate-override code path
    /// shared with the fault scenarios. A zero target rate becomes a
    /// *detected* `LinkDown` (flush + reroute), skipped where it would cut
    /// the switch graph in two; anything else a silent `RateChange` (both
    /// act on both directions of the link).
    pub fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        let topo = fabric.build_with_policy(transport.policy());
        let hosts = topo.hosts().to_vec();
        assert!(
            hosts.len() >= 2 * self.transfers,
            "need disjoint host pairs"
        );
        // One stream seeds the agents (one draw per host), then draws
        // the degraded links and the host pairs.
        let mut rng = Pcg32::new(self.seed ^ 0x5077);
        let agent_seeds = rng.clone();
        for _ in &hosts {
            rng.next_u64();
        }
        let mut faults = FaultPlan::new();
        let mut down = FaultMask::new();
        let mut degraded = 0usize;
        let mut total_fabric_links = 0usize;
        for n in 0..topo.node_count() as u32 {
            let node = NodeId(n);
            if topo.kind(node) != NodeKind::Switch {
                continue;
            }
            for (p, port) in topo.node_ports(node).iter().enumerate() {
                // Count each undirected link once (lower node id owns
                // it) and only switch-switch links (host links are the
                // flows' own bottleneck, not a "hotspot").
                if topo.kind(port.peer) != NodeKind::Switch || port.peer.0 < n {
                    continue;
                }
                total_fabric_links += 1;
                if rng.f64() < self.degraded_frac {
                    let action = if self.degraded_rate_frac == 0.0 {
                        // A dead link that splits the fabric would leave
                        // some host pair with no path, and its transfer
                        // would never finish: keep that link healthy.
                        down.fail_link(&topo, node, p as u16);
                        if !switches_connected(&topo, &down) {
                            down.restore_link(&topo, node, p as u16);
                            continue;
                        }
                        FaultAction::LinkDown {
                            node,
                            port: p as u16,
                        }
                    } else {
                        FaultAction::RateChange {
                            node,
                            port: p as u16,
                            rate_bps: (port.rate_bps as f64 * self.degraded_rate_frac) as u64,
                        }
                    };
                    faults.push(SimTime::ZERO, action);
                    degraded += 1;
                }
            }
        }
        assert!(
            degraded > 0 || self.degraded_frac == 0.0,
            "degraded_frac {} degraded none of {} fabric links",
            self.degraded_frac,
            total_fabric_links
        );
        let mut shuffled = hosts;
        rng.shuffle(&mut shuffled);
        let sessions = (0..self.transfers)
            .map(|i| LogicalSession {
                index: i as u32,
                client: shuffled[2 * i],
                replicas: vec![shuffled[2 * i + 1]],
                bytes: self.object_bytes,
                start: SimTime::ZERO,
                background: false,
            })
            .collect();
        Run {
            faults,
            agent_seeds,
            ..Run::healthy(topo, sessions, Pattern::Write, self.seed, 0x407, transport)
        }
    }
}

/// Whether every switch reaches every other over the switch-to-switch
/// links `mask` leaves up. Every host hangs off one switch, so this is
/// what keeps every host pair connected.
fn switches_connected(topo: &Topology, mask: &FaultMask) -> bool {
    let is_switch = |n: NodeId| topo.kind(n) == NodeKind::Switch;
    let mut switches = (0..topo.node_count() as u32)
        .map(NodeId)
        .filter(|&n| is_switch(n));
    let Some(first) = switches.next() else {
        return true;
    };
    let mut seen = vec![false; topo.node_count()];
    seen[first.0 as usize] = true;
    let mut frontier = vec![first];
    while let Some(n) = frontier.pop() {
        for (p, port) in topo.node_ports(n).iter().enumerate() {
            let peer = port.peer;
            if is_switch(peer) && !seen[peer.0 as usize] && mask.port_is_up(topo, n, p as u16) {
                seen[peer.0 as usize] = true;
                frontier.push(peer);
            }
        }
    }
    switches.all(|n| seen[n.0 as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RqRunOptions, TcpRunOptions, TransferResult};
    use crate::stats::RankCurve;
    use netsim::{RouteMode, RoutingPolicy};

    fn scenario(frac: f64) -> HotspotScenario {
        HotspotScenario {
            transfers: 6,
            object_bytes: 1 << 20,
            degraded_frac: frac,
            degraded_rate_frac: 0.1,
            seed: 11,
        }
    }

    fn rq(sc: &HotspotScenario, opts: RqRunOptions) -> Vec<TransferResult> {
        run(sc.build(&Fabric::small(), Transport::Rq(opts))).flows
    }

    #[test]
    fn healthy_fabric_baseline() {
        let res = rq(&scenario(0.0), RqRunOptions::default());
        let c = RankCurve::new(res.iter().map(|r| r.goodput_gbps()).collect());
        assert!(c.median() > 0.7, "healthy fabric median {}", c.median());
    }

    #[test]
    fn spray_routes_around_hotspots() {
        // 30% of fabric links at 10% rate: sprayed transfers degrade
        // gracefully (bounded by the average path capacity)…
        let spray = rq(&scenario(0.3), RqRunOptions::default());
        let spray_curve = RankCurve::new(spray.iter().map(|r| r.goodput_gbps()).collect());
        // …while per-flow ECMP pins some flows onto slow paths for their
        // whole lifetime, cratering the tail.
        let ecmp_opts = RqRunOptions {
            route: RouteMode::EcmpFlow,
            ..Default::default()
        };
        let ecmp = rq(&scenario(0.3), ecmp_opts);
        let ecmp_curve = RankCurve::new(ecmp.iter().map(|r| r.goodput_gbps()).collect());
        let spray_worst = spray_curve.at(spray_curve.len() - 1);
        let ecmp_worst = ecmp_curve.at(ecmp_curve.len() - 1);
        assert!(
            spray_worst > ecmp_worst,
            "spraying should protect the tail: spray worst {spray_worst} vs ecmp worst {ecmp_worst}"
        );
    }

    #[test]
    fn transfers_survive_link_down_faults() {
        // Real detected link-down faults (degraded_rate_frac = 0 routes
        // through the FaultPlan's LinkDown path): the fabric reroutes
        // around the dead links and every transfer still completes.
        let sc = HotspotScenario {
            transfers: 4,
            object_bytes: 512 << 10,
            degraded_frac: 0.15,
            degraded_rate_frac: 0.0,
            seed: 3,
        };
        let res = rq(&sc, RqRunOptions::default());
        assert_eq!(
            res.len(),
            4,
            "all transfers must complete despite dead links"
        );
        for r in &res {
            assert!(r.goodput_gbps() > 0.0);
        }
    }

    fn link_down(degraded_frac: f64, seed: u64) -> HotspotScenario {
        HotspotScenario {
            transfers: 4,
            object_bytes: 64 << 10,
            degraded_frac,
            degraded_rate_frac: 0.0,
            seed,
        }
    }

    #[test]
    fn link_down_plans_keep_the_switch_graph_connected() {
        // Without the connectivity check, 40 of these 200 draws at 0.15
        // and 125 at 0.3 split the k = 4 fat-tree's switch graph. Seed
        // 103 at 0.15 draws none of the 32 links, which `build` refuses.
        let transport = Transport::Rq(RqRunOptions::default());
        for frac in [0.15, 0.3] {
            for seed in (0..200).filter(|&s| (frac, s) != (0.15, 103)) {
                let run = link_down(frac, seed).build(&Fabric::small(), transport);
                let mut mask = FaultMask::new();
                for ev in run.faults.events() {
                    let FaultAction::LinkDown { node, port } = ev.action else {
                        panic!("a link-down run scripts only link-downs");
                    };
                    mask.fail_link(&run.topo, node, port);
                }
                assert!(
                    switches_connected(&run.topo, &mask),
                    "seed {seed} at {frac} splits the fabric"
                );
            }
        }
    }

    #[test]
    fn draws_that_used_to_split_the_fabric_complete() {
        // Each of these once disconnected a host pair: the run spun until
        // simulated time overflowed.
        for (frac, seed) in [(0.3, 945), (0.15, 597)] {
            let sc = link_down(frac, seed);
            let policy = RoutingPolicy::layered(2, seed);
            let rq = RqRunOptions {
                policy,
                ..Default::default()
            };
            let tcp = TcpRunOptions {
                policy,
                ..Default::default()
            };
            for transport in [Transport::Rq(rq), Transport::Tcp(tcp)] {
                let rep = run(sc.build(&Fabric::small(), transport));
                assert_eq!(rep.flows.len(), 4, "seed {seed} at {frac}");
            }
        }
    }
}
