//! Fault injection: deterministic plans of timed fabric events.
//!
//! A [`FaultPlan`] is a scripted sequence of link/switch failures,
//! repairs, and rate changes that the simulator executes **mid-run** at
//! their scheduled times (see `Simulator::schedule_faults`). Failures
//! are *detected* faults: the fabric recomputes its routing tables and
//! repairs multicast trees against the live [`FaultMask`], queued and
//! in-flight packets on the dead element are lost, and the simulator
//! counts both the losses and the reroutes. A [`FaultAction::RateChange`]
//! to zero, by contrast, models a *silent* failure — the link blackholes
//! traffic without the control plane noticing, which is the hardest case
//! for a transport (the `workload::hotspot` degradation uses this).
//!
//! The [`FaultMask`] is also usable standalone against
//! `Topology::compute_routes_masked` for what-if analysis (the
//! `fabric_invariants` property tests exercise single-failure
//! recoverability this way).

use std::collections::BTreeSet;

use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

/// The set of links and nodes currently failed.
///
/// Links are tracked as *directed* `(node, port)` entries; the
/// `fail_link`/`restore_link` helpers insert both directions, so a
/// failed link is dead both ways. Determinism note: the sets are
/// `BTreeSet`s so iteration (and hence any derived recomputation) is
/// seed-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMask {
    links: BTreeSet<(u32, u16)>,
    nodes: BTreeSet<u32>,
}

impl FaultMask {
    /// A mask with nothing failed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }

    /// Fail the link behind `(node, port)`, both directions.
    pub fn fail_link(&mut self, topo: &Topology, node: NodeId, port: u16) {
        let p = topo.port(node, port);
        self.links.insert((node.0, port));
        self.links.insert((p.peer.0, p.peer_port));
    }

    /// Restore the link behind `(node, port)`, both directions.
    pub fn restore_link(&mut self, topo: &Topology, node: NodeId, port: u16) {
        let p = topo.port(node, port);
        self.links.remove(&(node.0, port));
        self.links.remove(&(p.peer.0, p.peer_port));
    }

    /// Fail a node (all its links become unusable).
    pub fn fail_node(&mut self, node: NodeId) {
        self.nodes.insert(node.0);
    }

    /// Restore a failed node.
    pub fn restore_node(&mut self, node: NodeId) {
        self.nodes.remove(&node.0);
    }

    /// Whether the link leaving `node` through `port` is failed.
    pub fn link_is_down(&self, node: NodeId, port: u16) -> bool {
        self.links.contains(&(node.0, port))
    }

    /// Whether a node is failed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.nodes.contains(&node.0)
    }

    /// Whether the directed hop `(node, port)` is fully usable: the node
    /// itself, the link, and the far end are all up.
    pub fn port_is_up(&self, topo: &Topology, node: NodeId, port: u16) -> bool {
        !self.node_is_down(node)
            && !self.link_is_down(node, port)
            && !self.node_is_down(topo.port(node, port).peer)
    }

    /// Every failed directed `(node, port)` entry, in deterministic
    /// order. The simulator flushes these queues when routes converge:
    /// packets forwarded onto a dead link during the convergence window
    /// would otherwise strand there unaccounted.
    pub fn down_links(&self) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        self.links.iter().map(|&(n, p)| (NodeId(n), p))
    }

    /// Directed `(node, port)` link entries failed in `self` but not in
    /// `earlier` — the link half of the delta
    /// [`Topology::repair_routes`](crate::topology::Topology::repair_routes)
    /// excises from the routing tables. Deterministic (set) order.
    pub fn new_links_since(&self, earlier: &FaultMask) -> Vec<(NodeId, u16)> {
        self.links
            .difference(&earlier.links)
            .map(|&(n, p)| (NodeId(n), p))
            .collect()
    }

    /// Nodes failed in `self` but not in `earlier` — the node half of
    /// the repair delta. Deterministic (set) order.
    pub fn new_nodes_since(&self, earlier: &FaultMask) -> Vec<NodeId> {
        self.nodes
            .difference(&earlier.nodes)
            .map(|&n| NodeId(n))
            .collect()
    }

    /// Directed `(node, port)` link entries failed in `earlier` but no
    /// longer in `self` — the link half of a restoration delta, which
    /// [`Topology::repair_routes`](crate::topology::Topology::repair_routes)
    /// heals with bounded restore surgery. Deterministic (set) order.
    pub fn restored_links_since(&self, earlier: &FaultMask) -> Vec<(NodeId, u16)> {
        earlier
            .links
            .difference(&self.links)
            .map(|&(n, p)| (NodeId(n), p))
            .collect()
    }

    /// Nodes failed in `earlier` but no longer in `self` — the node half
    /// of a restoration delta. Deterministic (set) order.
    pub fn restored_nodes_since(&self, earlier: &FaultMask) -> Vec<NodeId> {
        earlier
            .nodes
            .difference(&self.nodes)
            .map(|&n| NodeId(n))
            .collect()
    }
}

/// One scripted fabric event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Detected link failure (both directions): queued packets on the
    /// two port queues are lost, in-flight packets on the wire are lost
    /// on arrival, and routes/multicast trees are recomputed.
    LinkDown {
        /// One endpoint of the link.
        node: NodeId,
        /// The failing port on `node`.
        port: u16,
    },
    /// Link repair (both directions); routes are recomputed.
    LinkUp {
        /// One endpoint of the link.
        node: NodeId,
        /// The repaired port on `node`.
        port: u16,
    },
    /// Detected node failure: everything queued at the node is lost,
    /// packets arriving at it (or in flight on its links) are lost, and
    /// routes/multicast trees are recomputed around it. Despite the
    /// name, **hosts are legal victims**: a host victim models a host /
    /// NIC failure — its access link goes dark, its queues flush, its
    /// sessions strand until the workload re-targets them (see
    /// `workload::churn`) or the host revives.
    SwitchDown {
        /// The failing node (switch, or host for a host/NIC failure).
        switch: NodeId,
    },
    /// Node repair; routes are recomputed. A repaired host's parked NIC
    /// (and its neighbours' queues towards it) resume transmitting.
    SwitchUp {
        /// The repaired node.
        switch: NodeId,
    },
    /// Set both directions of a link to `rate_bps` (the topology rate
    /// restores it). Zero blackholes the link **silently**: packets
    /// queue until overflow and no reroute happens — an undetected
    /// failure, unlike [`FaultAction::LinkDown`].
    RateChange {
        /// One endpoint of the link.
        node: NodeId,
        /// The affected port on `node`.
        port: u16,
        /// New rate in bits per second (0 = silent blackhole).
        rate_bps: u64,
    },
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulation time the action executes.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic script of timed fabric events.
///
/// Build one with the chainable helpers, hand it to
/// `Simulator::schedule_faults` before (or between) runs. Events firing
/// at the same instant execute in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        self.events.push(FaultEvent { at, action });
    }

    /// Chainable: detected link failure at `at`.
    pub fn link_down(mut self, at: SimTime, node: NodeId, port: u16) -> Self {
        self.push(at, FaultAction::LinkDown { node, port });
        self
    }

    /// Chainable: link repair at `at`.
    pub fn link_up(mut self, at: SimTime, node: NodeId, port: u16) -> Self {
        self.push(at, FaultAction::LinkUp { node, port });
        self
    }

    /// Chainable: detected switch failure at `at`.
    pub fn switch_down(mut self, at: SimTime, switch: NodeId) -> Self {
        self.push(at, FaultAction::SwitchDown { switch });
        self
    }

    /// Chainable: switch repair at `at`.
    pub fn switch_up(mut self, at: SimTime, switch: NodeId) -> Self {
        self.push(at, FaultAction::SwitchUp { switch });
        self
    }

    /// Chainable: host/NIC failure at `at` (a [`FaultAction::SwitchDown`]
    /// aimed at a host — see that variant for the semantics).
    pub fn host_down(self, at: SimTime, host: NodeId) -> Self {
        self.switch_down(at, host)
    }

    /// Chainable: host repair at `at`.
    pub fn host_up(self, at: SimTime, host: NodeId) -> Self {
        self.switch_up(at, host)
    }

    /// The hosts this plan takes down, with their failure instants and
    /// (when scripted) repair instants — what a workload needs to strand
    /// and re-target the victims' sessions. Insertion order.
    pub fn host_failures(&self, topo: &Topology) -> Vec<HostFailure> {
        let mut out: Vec<HostFailure> = Vec::new();
        for ev in &self.events {
            match ev.action {
                FaultAction::SwitchDown { switch }
                    if topo.kind(switch) == crate::topology::NodeKind::Host =>
                {
                    out.push(HostFailure {
                        host: switch,
                        at: ev.at,
                        repaired_at: None,
                    });
                }
                FaultAction::SwitchUp { switch } => {
                    if let Some(f) = out
                        .iter_mut()
                        .rev()
                        .find(|f| f.host == switch && f.repaired_at.is_none())
                    {
                        f.repaired_at = Some(ev.at);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Chainable: rate change (0 = silent blackhole) at `at`.
    pub fn rate_change(mut self, at: SimTime, node: NodeId, port: u16, rate_bps: u64) -> Self {
        self.push(
            at,
            FaultAction::RateChange {
                node,
                port,
                rate_bps,
            },
        );
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The failure instants of every down event (link and node alike),
    /// in insertion order — what fault reports correlate in-flight
    /// transfers against.
    pub fn down_instants(&self) -> Vec<SimTime> {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    FaultAction::LinkDown { .. } | FaultAction::SwitchDown { .. }
                )
            })
            .map(|e| e.at)
            .collect()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One host failure scripted in a plan (see [`FaultPlan::host_failures`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFailure {
    /// The failed host.
    pub host: NodeId,
    /// When it goes down.
    pub at: SimTime,
    /// When the plan repairs it (`None` = permanent).
    pub repaired_at: Option<SimTime>,
}

/// Relative weights of the event classes a [`FaultProcess`] draws.
/// Classes whose weight is zero — or that have no candidate victims on
/// the given fabric — are simply never drawn.
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Detected switch–switch link failure (repaired after the process's
    /// repair delay, if any).
    pub link: f64,
    /// Transit-switch failure (host-free switches only, so no rack is
    /// isolated by a single event).
    pub switch: f64,
    /// Host/NIC failure — the replica-loss case the workload layer's
    /// session re-target exists for.
    pub host: f64,
    /// Link flap: down and back up within the flap delay, i.e. faster
    /// than the control plane converges — exercises coalescing.
    pub flap: f64,
}

impl FaultMix {
    /// Equal weight on all four classes.
    pub fn uniform() -> Self {
        Self {
            link: 1.0,
            switch: 1.0,
            host: 1.0,
            flap: 1.0,
        }
    }

    /// Links and flaps only (no element stays down for long).
    pub fn links_only() -> Self {
        Self {
            link: 1.0,
            switch: 0.0,
            host: 0.0,
            flap: 1.0,
        }
    }
}

/// A seeded Poisson process of fabric faults: exponential inter-arrival
/// gaps at a configured rate, each event drawing its class from a
/// [`FaultMix`] and its victim uniformly from the class's candidates.
/// [`FaultProcess::compile`] turns it into a deterministic [`FaultPlan`]
/// — same seed, same fabric ⇒ identical plan — so sustained fault churn
/// is scriptable and replayable like any single-fault scenario.
#[derive(Debug, Clone, Copy)]
pub struct FaultProcess {
    /// Fault events per second of simulated time.
    pub rate_per_sec: f64,
    /// Event class weights.
    pub mix: FaultMix,
    /// Repair each link/switch/host failure this long after it strikes
    /// (`None` = failures are permanent). Flaps repair after
    /// [`FaultProcess::flap_delay_ns`] regardless.
    pub repair_delay_ns: Option<u64>,
    /// Down-to-up delay of a flap event. Keep it below the simulator's
    /// `reroute_delay_ns` to exercise coalescing (the default 1 ms sits
    /// well under the 25 ms the fault scenarios use).
    pub flap_delay_ns: u64,
    /// RNG seed (arrival times, class draws, victim draws).
    pub seed: u64,
}

impl FaultProcess {
    /// A Poisson fault process at `rate_per_sec` with the given mix and
    /// repair delay; flap delay defaults to 1 ms and the seed to 0
    /// (override with the builder setters).
    pub fn poisson(rate_per_sec: f64, mix: FaultMix, repair_delay_ns: Option<u64>) -> Self {
        assert!(rate_per_sec > 0.0, "fault rate must be positive");
        Self {
            rate_per_sec,
            mix,
            repair_delay_ns,
            flap_delay_ns: 1_000_000,
            seed: 0,
        }
    }

    /// Builder: set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the flap down-to-up delay.
    pub fn flap_delay(mut self, ns: u64) -> Self {
        self.flap_delay_ns = ns;
        self
    }

    /// Compile `events` fault events over `topo` starting at `start`
    /// into a deterministic plan. Victim candidates per class: links =
    /// switch–switch links, switches = host-free (transit) switches,
    /// hosts = all hosts. Classes with zero weight or no candidates are
    /// never drawn; panics if that leaves no class at all.
    pub fn compile(&self, topo: &Topology, start: SimTime, events: usize) -> FaultPlan {
        let links: Vec<(NodeId, u16)> = topo.switch_links().collect();
        let switches = topo.core_switches();
        let hosts = topo.hosts().to_vec();
        // (weight, class) pairs that can actually fire on this fabric.
        let classes: Vec<(f64, u8)> = [
            (self.mix.link, 0u8, !links.is_empty()),
            (self.mix.switch, 1, !switches.is_empty()),
            (self.mix.host, 2, !hosts.is_empty()),
            (self.mix.flap, 3, !links.is_empty()),
        ]
        .into_iter()
        .filter(|&(w, _, has)| w > 0.0 && has)
        .map(|(w, c, _)| (w, c))
        .collect();
        let total: f64 = classes.iter().map(|&(w, _)| w).sum();
        assert!(
            total > 0.0,
            "fault mix has no drawable class on this fabric"
        );
        let mut rng = crate::rng::Pcg32::new(self.seed ^ 0xFA_17_90_15);
        let mean_gap_ns = 1e9 / self.rate_per_sec;
        let mut t = start.as_nanos() as f64;
        let mut plan = FaultPlan::new();
        // Outage windows already scheduled, keyed by victim. Re-failing
        // an element that is still down would corrupt the model: the
        // mask is a set, so the *first* scheduled repair would revive it
        // and silently truncate the second outage. Victims are redrawn
        // (bounded, deterministic) until one is up at the event instant.
        let mut down_until: std::collections::BTreeMap<ElementKey, u64> =
            std::collections::BTreeMap::new();
        for _ in 0..events {
            t += rng.exp(mean_gap_ns);
            let at = SimTime::from_nanos(t as u64);
            let mut draw = rng.f64() * total;
            let mut class = classes[classes.len() - 1].1;
            for &(w, c) in &classes {
                if draw < w {
                    class = c;
                    break;
                }
                draw -= w;
            }
            let up_delay = if class == 3 {
                Some(self.flap_delay_ns)
            } else {
                self.repair_delay_ns
            };
            let until = up_delay.map_or(u64::MAX, |d| at.as_nanos() + d);
            match class {
                0 | 3 => {
                    let Some((node, port)) = draw_up_victim(&mut rng, &links, |&(n, p)| {
                        down_until
                            .get(&ElementKey::link(topo, n, p))
                            .is_none_or(|&u| u <= at.as_nanos())
                    }) else {
                        continue; // every candidate is down right now
                    };
                    down_until.insert(ElementKey::link(topo, node, port), until);
                    plan.push(at, FaultAction::LinkDown { node, port });
                    if let Some(d) = up_delay {
                        plan.push(at + d, FaultAction::LinkUp { node, port });
                    }
                }
                1 | 2 => {
                    let candidates = if class == 1 { &switches } else { &hosts };
                    let Some(victim) = draw_up_victim(&mut rng, candidates, |&n| {
                        down_until
                            .get(&ElementKey::Node(n.0))
                            .is_none_or(|&u| u <= at.as_nanos())
                    }) else {
                        continue;
                    };
                    down_until.insert(ElementKey::Node(victim.0), until);
                    plan.push(at, FaultAction::SwitchDown { switch: victim });
                    if let Some(d) = self.repair_delay_ns {
                        plan.push(at + d, FaultAction::SwitchUp { switch: victim });
                    }
                }
                _ => unreachable!("classes are 0..=3"),
            }
        }
        plan
    }
}

/// Canonical identity of a failable element — the key plan compilation
/// tracks outage windows by and the control plane coalesces flaps by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ElementKey {
    /// A link, by the lower of its two directed `(node, port)` entries.
    Link(u32, u16),
    Node(u32),
}

impl ElementKey {
    /// The key of the link behind the directed entry `(node, port)`:
    /// the same from either end.
    pub(crate) fn link(topo: &Topology, node: NodeId, port: u16) -> Self {
        let back = topo.port(node, port);
        let (n, p) = (node.0, port).min((back.peer.0, back.peer_port));
        Self::Link(n, p)
    }
}

/// Draw a victim uniformly from `candidates`, redrawing (bounded,
/// deterministic) while the pick is still down; `None` if no up victim
/// was found — the caller skips the event rather than corrupting an
/// outage window already scheduled on the victim.
fn draw_up_victim<T: Copy>(
    rng: &mut crate::rng::Pcg32,
    candidates: &[T],
    is_up: impl Fn(&T) -> bool,
) -> Option<T> {
    for _ in 0..32 {
        let pick = candidates[rng.below(candidates.len() as u64) as usize];
        if is_up(&pick) {
            return Some(pick);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;

    fn line_topo() -> Topology {
        // h0 — s1 — h2
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        t
    }

    #[test]
    fn mask_fail_link_is_bidirectional() {
        let t = line_topo();
        let mut m = FaultMask::new();
        let (a, s) = (NodeId(0), NodeId(1));
        m.fail_link(&t, a, 0);
        assert!(m.link_is_down(a, 0));
        assert!(m.link_is_down(s, 0), "reverse direction also down");
        assert!(!m.port_is_up(&t, a, 0));
        m.restore_link(&t, a, 0);
        assert!(m.is_empty());
        assert!(m.port_is_up(&t, a, 0));
    }

    #[test]
    fn mask_node_down_kills_adjacent_hops() {
        let t = line_topo();
        let mut m = FaultMask::new();
        m.fail_node(NodeId(1));
        // Host -> dead switch hop unusable even though the link is fine.
        assert!(!m.port_is_up(&t, NodeId(0), 0));
        m.restore_node(NodeId(1));
        assert!(m.port_is_up(&t, NodeId(0), 0));
    }

    #[test]
    fn plan_builder_preserves_order() {
        let plan = FaultPlan::new()
            .switch_down(SimTime::from_nanos(10), NodeId(1))
            .switch_up(SimTime::from_nanos(20), NodeId(1))
            .rate_change(SimTime::from_nanos(10), NodeId(0), 0, 0);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.events()[0].action,
            FaultAction::SwitchDown { switch: NodeId(1) }
        );
        // Same-time events keep insertion order.
        assert_eq!(plan.events()[2].at, SimTime::from_nanos(10));
    }
}
