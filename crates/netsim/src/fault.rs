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

use crate::time::SimTime;
use crate::topology::{NodeId, Topology, MAX_DEGREE};

/// The set of links and nodes currently failed.
///
/// Links are tracked as *directed* `(node, port)` entries; the
/// `fail_link`/`restore_link` helpers change both directions together,
/// so a failed link is dead both ways — the simulator relies on it when
/// it checks a packet's wire at the receiving end. Both sets are flat
/// bitmaps: a failed link is bit `node·64 + port`, so a node's ports are
/// one word (a routed fabric has no node with more than 64 ports, and a
/// port past 63 is refused here), and a failed node is the bit of its
/// id. [`FaultMask::link_is_down`] and [`FaultMask::node_is_down`] are
/// therefore one indexed load each. Determinism note: iteration and the
/// deltas run in ascending `(node, port)` order, and no trailing zero
/// word is ever kept, so `==` is set equality.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FaultMask {
    /// The failed directed links, bit `node·64 + port` each.
    links: Vec<u64>,
    /// The failed nodes, one bit each.
    nodes: Vec<u64>,
}

impl Clone for FaultMask {
    fn clone(&self) -> Self {
        Self {
            links: self.links.clone(),
            nodes: self.nodes.clone(),
        }
    }

    /// Reuses both bitmaps' allocations: a route repair records its
    /// mask this way.
    fn clone_from(&mut self, source: &Self) {
        self.links.clone_from(&source.links);
        self.nodes.clone_from(&source.nodes);
    }
}

/// The bit of the directed link `(node, port)` in [`FaultMask::links`].
///
/// # Panics
/// Panics on a port past 63, which would alias into the next node's
/// word.
fn link_bit(node: NodeId, port: u16) -> usize {
    assert!(
        usize::from(port) < MAX_DEGREE,
        "port {port} of node {}: a fault mask holds ports 0..{MAX_DEGREE}",
        node.0
    );
    node.0 as usize * MAX_DEGREE + usize::from(port)
}

/// The directed link of bit `i` of [`FaultMask::links`].
fn link_of(i: usize) -> (NodeId, u16) {
    (NodeId((i / MAX_DEGREE) as u32), (i % MAX_DEGREE) as u16)
}

/// Whether bit `i` of a bitmap is set.
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 != 0)
}

/// Set bit `i`, growing the bitmap as far as it needs.
fn set_bit(words: &mut Vec<u64>, i: usize) {
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// Clear bit `i`, then drop trailing zero words.
fn clear_bit(words: &mut Vec<u64>, i: usize) {
    if let Some(w) = words.get_mut(i / 64) {
        *w &= !(1 << (i % 64));
    }
    while words.last() == Some(&0) {
        words.pop();
    }
}

/// The set bits of `a` that are clear in `b`, ascending.
fn ones_minus<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter().enumerate().flat_map(move |(i, &w)| {
        let mut w = w & !b.get(i).copied().unwrap_or(0);
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let low = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + low
            })
        })
    })
}

/// Directed link entries failed in `a` but not in `b`, ascending.
fn links_minus(a: &FaultMask, b: &FaultMask) -> Vec<(NodeId, u16)> {
    ones_minus(&a.links, &b.links).map(link_of).collect()
}

/// Nodes failed in `a` but not in `b`, ascending.
fn nodes_minus(a: &FaultMask, b: &FaultMask) -> Vec<NodeId> {
    ones_minus(&a.nodes, &b.nodes)
        .map(|n| NodeId(n as u32))
        .collect()
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
        set_bit(&mut self.links, link_bit(node, port));
        set_bit(&mut self.links, link_bit(p.peer, p.peer_port));
    }

    /// Restore the link behind `(node, port)`, both directions.
    pub fn restore_link(&mut self, topo: &Topology, node: NodeId, port: u16) {
        let p = topo.port(node, port);
        clear_bit(&mut self.links, link_bit(node, port));
        clear_bit(&mut self.links, link_bit(p.peer, p.peer_port));
    }

    /// Fail a node (all its links become unusable).
    pub fn fail_node(&mut self, node: NodeId) {
        set_bit(&mut self.nodes, node.0 as usize);
    }

    /// Restore a failed node.
    pub fn restore_node(&mut self, node: NodeId) {
        clear_bit(&mut self.nodes, node.0 as usize);
    }

    /// Whether the link leaving `node` through `port` is failed.
    pub fn link_is_down(&self, node: NodeId, port: u16) -> bool {
        bit(&self.links, link_bit(node, port))
    }

    /// Whether a node is failed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        bit(&self.nodes, node.0 as usize)
    }

    /// Whether the directed hop `(node, port)` is fully usable: the node
    /// itself, the link, and the far end are all up.
    pub fn port_is_up(&self, topo: &Topology, node: NodeId, port: u16) -> bool {
        !self.node_is_down(node)
            && !self.link_is_down(node, port)
            && !self.node_is_down(topo.port(node, port).peer)
    }

    /// Every failed directed `(node, port)` entry, in ascending order.
    /// The simulator flushes these queues when routes converge:
    /// packets forwarded onto a dead link during the convergence window
    /// would otherwise strand there unaccounted.
    pub fn down_links(&self) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        ones_minus(&self.links, &[]).map(link_of)
    }

    /// Directed `(node, port)` link entries failed in `self` but not in
    /// `earlier` — the link half of the delta
    /// [`Topology::repair_routes`](crate::topology::Topology::repair_routes)
    /// excises from the routing tables. Ascending order.
    pub fn new_links_since(&self, earlier: &FaultMask) -> Vec<(NodeId, u16)> {
        links_minus(self, earlier)
    }

    /// Nodes failed in `self` but not in `earlier` — the node half of
    /// the repair delta. Ascending order.
    pub fn new_nodes_since(&self, earlier: &FaultMask) -> Vec<NodeId> {
        nodes_minus(self, earlier)
    }

    /// Directed `(node, port)` link entries failed in `earlier` but no
    /// longer in `self` — the link half of a restoration delta, which
    /// [`Topology::repair_routes`](crate::topology::Topology::repair_routes)
    /// heals with bounded restore surgery. Ascending order.
    pub fn restored_links_since(&self, earlier: &FaultMask) -> Vec<(NodeId, u16)> {
        links_minus(earlier, self)
    }

    /// Nodes failed in `earlier` but no longer in `self` — the node half
    /// of a restoration delta. Ascending order.
    pub fn restored_nodes_since(&self, earlier: &FaultMask) -> Vec<NodeId> {
        nodes_minus(earlier, self)
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
    use crate::topology::{NodeKind, RoutingPolicy};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Every link the mask fails or restores changes in both directions
    /// at once — an arrival's loss check reads only the receiving end's
    /// entry, so it must stand for the whole wire. Checked from either
    /// end of every link of a fat-tree, one link at a time and with all
    /// of them down.
    #[test]
    fn mask_links_are_symmetric() {
        let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
        let entries = entries(&t);
        let symmetric = |m: &FaultMask| {
            entries.iter().all(|&(n, p)| {
                let back = t.port(n, p);
                m.link_is_down(n, p) == m.link_is_down(back.peer, back.peer_port)
            })
        };
        let mut all = FaultMask::new();
        for &(n, p) in &entries {
            let mut one = FaultMask::new();
            one.fail_link(&t, n, p);
            assert!(symmetric(&one) && one.down_links().count() == 2);
            let back = t.port(n, p);
            one.restore_link(&t, back.peer, back.peer_port);
            assert!(one.is_empty(), "restoring from the far end undoes both");
            all.fail_link(&t, n, p);
            assert!(symmetric(&all));
        }
        assert_eq!(all.down_links().count(), entries.len());
        for &(n, p) in entries.iter().rev() {
            all.restore_link(&t, n, p);
            assert!(symmetric(&all));
        }
        assert!(all.is_empty());
    }

    /// The reference the mask is checked against: the `BTreeSet`s it
    /// used to be.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Model {
        links: BTreeSet<(u32, u16)>,
        nodes: BTreeSet<u32>,
    }

    /// A 64-port switch — 62 hosts, then two parallel links to a second
    /// switch with 3 hosts on ports 62 and 63, the top bits of its word.
    fn wide_topo() -> Topology {
        let mut t = Topology::new();
        let (a, b) = (t.add_node(NodeKind::Switch), t.add_node(NodeKind::Switch));
        for i in 0..65 {
            let h = t.add_node(NodeKind::Host);
            t.connect(h, if i < 62 { a } else { b }, 1_000_000_000, 1_000);
        }
        t.connect(a, b, 1_000_000_000, 1_000);
        t.connect(a, b, 1_000_000_000, 1_000);
        t.compute_routes();
        t
    }

    /// Every directed `(node, port)` entry of `t`.
    fn entries(t: &Topology) -> Vec<(NodeId, u16)> {
        (0..t.node_count() as u32)
            .flat_map(|v| (0..t.node_ports(NodeId(v)).len() as u16).map(move |p| (NodeId(v), p)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random fail and restore sequences of links and nodes on a
        /// fat-tree and on a topology with a 64-port switch: after every
        /// step the mask answers `link_is_down`, `node_is_down`,
        /// `port_is_up` and `is_empty` for every entry as the `BTreeSet`
        /// model does, lists `down_links` in the model's order, gives the
        /// model's four deltas against a snapshot taken at a random
        /// earlier step, and is `==` to that snapshot exactly when the
        /// model is — so failing and then restoring an element gives a
        /// mask equal to the one before.
        #[test]
        fn mask_matches_the_btreeset_model(
            wide in any::<bool>(),
            steps in proptest::collection::vec((0u8..6, any::<u64>()), 1..120),
        ) {
            let t = if wide { wide_topo() } else { Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal()) };
            let n = t.node_count() as u32;
            let entries = entries(&t);
            let (mut mask, mut model) = (FaultMask::new(), Model::default());
            let (mut then_mask, mut then_model) = (mask.clone(), model.clone());
            let links = |v: Vec<(NodeId, u16)>| -> Vec<(u32, u16)> {
                v.into_iter().map(|(v, p)| (v.0, p)).collect()
            };
            let nodes = |v: Vec<NodeId>| -> Vec<u32> { v.into_iter().map(|v| v.0).collect() };
            let minus = |a: &BTreeSet<(u32, u16)>, b: &BTreeSet<(u32, u16)>| -> Vec<(u32, u16)> {
                a.difference(b).copied().collect()
            };
            for (op, raw) in steps {
                let pick = |len: usize| (raw % len.max(1) as u64) as usize;
                // Restores aim at something failed when there is any,
                // so the mask also shrinks back to empty.
                let (node, port) = match model.links.iter().nth(pick(model.links.len())) {
                    Some(&(v, p)) if op == 2 => (NodeId(v), p),
                    _ => entries[pick(entries.len())],
                };
                let victim = match model.nodes.iter().nth(pick(model.nodes.len())) {
                    Some(&v) if op == 4 => NodeId(v),
                    _ => NodeId(pick(n as usize) as u32),
                };
                let back = t.port(node, port);
                let pair = [(node.0, port), (back.peer.0, back.peer_port)];
                let (before, was) = (mask.clone(), model.clone());
                if op <= 1 || (op == 5 && raw & 1 == 0) {
                    mask.fail_link(&t, node, port);
                    model.links.extend(pair);
                }
                if op == 2 || (op == 5 && raw & 1 == 0) {
                    mask.restore_link(&t, node, port);
                    for e in &pair {
                        model.links.remove(e);
                    }
                }
                if op == 3 || (op == 5 && raw & 1 == 1) {
                    mask.fail_node(victim);
                    model.nodes.insert(victim.0);
                }
                if op == 4 || (op == 5 && raw & 1 == 1) {
                    mask.restore_node(victim);
                    model.nodes.remove(&victim.0);
                }
                // A failure and its restore back to back (op 5) leave
                // the mask as it was unless the element was down before.
                prop_assert_eq!(mask == before, model == was);
                if raw >> 60 == 0 {
                    (then_mask, then_model) = (mask.clone(), model.clone());
                }
                let down = |v: NodeId| model.nodes.contains(&v.0);
                for &(v, p) in &entries {
                    let cut = model.links.contains(&(v.0, p));
                    prop_assert_eq!(mask.link_is_down(v, p), cut);
                    let up = !down(v) && !cut && !down(t.port(v, p).peer);
                    prop_assert_eq!(mask.port_is_up(&t, v, p), up);
                }
                // Past the last node too: ids no mask word reaches.
                for v in (0..n + 70).map(NodeId) {
                    prop_assert_eq!(mask.node_is_down(v), down(v));
                }
                let empty = model.links.is_empty() && model.nodes.is_empty();
                prop_assert_eq!(mask.is_empty(), empty);
                let listed = links(mask.down_links().collect());
                prop_assert_eq!(listed, model.links.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(
                    links(mask.new_links_since(&then_mask)),
                    minus(&model.links, &then_model.links)
                );
                prop_assert_eq!(
                    links(mask.restored_links_since(&then_mask)),
                    minus(&then_model.links, &model.links)
                );
                prop_assert_eq!(
                    nodes(mask.new_nodes_since(&then_mask)),
                    model.nodes.difference(&then_model.nodes).copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    nodes(mask.restored_nodes_since(&then_mask)),
                    then_model.nodes.difference(&model.nodes).copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(mask == then_mask, model == then_model);
            }
        }
    }

    /// A node's failed ports are one word: a port past 63 is refused,
    /// never read as the next node's port 0.
    #[test]
    #[should_panic(expected = "a fault mask holds ports 0..64")]
    fn mask_refuses_a_port_past_63() {
        let t = line_topo();
        let mut m = FaultMask::new();
        m.fail_link(&t, NodeId(1), 0);
        m.link_is_down(NodeId(0), 64);
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
