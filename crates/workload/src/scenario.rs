//! Logical workload generation, shared between protocols.
//!
//! The same seeded generator produces the identical arrival process and
//! placement for Polyraptor and TCP runs, so the figures compare the two
//! transports on exactly the same offered load (the paper runs both on
//! the same OMNeT++ scenario files).
//!
//! Paper parameters (Figure 1): 250-host fat-tree, 4 MB objects, Poisson
//! arrivals with λ = 2560 sessions/s, 20 % background sessions,
//! permutation traffic matrix, replicas placed outside the client's rack.

use netsim::{NodeId, Pcg32, SimTime, Topology};

use crate::runner::{Fabric, Run, Transport};

/// One-to-many or many-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Replication write: client pushes the object to every replica
    /// (Polyraptor: multicast; TCP: multi-unicast). Figure 1a.
    Write,
    /// Fetch: client reads the object that exists on every replica
    /// (Polyraptor: multi-source; TCP: partitioned fetch). Figure 1b.
    Read,
}

/// A protocol-agnostic storage session.
#[derive(Debug, Clone)]
pub struct LogicalSession {
    /// Dense session index (also used as id).
    pub index: u32,
    /// The client host.
    pub client: NodeId,
    /// Replica servers (1 or 3 in the paper), outside the client's rack.
    pub replicas: Vec<NodeId>,
    /// Object size in bytes.
    pub bytes: usize,
    /// Poisson arrival time.
    pub start: SimTime,
    /// Background sessions are excluded from the reported curves.
    pub background: bool,
}

/// Parameters of the Figure 1a/1b storage workload.
#[derive(Debug, Clone, Copy)]
pub struct StorageScenario {
    /// Total sessions to simulate (foreground + background).
    pub sessions: usize,
    /// Object size in bytes (paper: 4 MB).
    pub object_bytes: usize,
    /// Replicas per session (paper: 1 or 3).
    pub replicas: usize,
    /// Poisson arrival rate **per host**, sessions per second. The paper
    /// quotes λ = 2560/s over 250 hosts ⇒ 10.24 per host; expressing it
    /// per host keeps the offered load (≈34 % of access capacity)
    /// identical when experiments run on scaled-down fabrics.
    pub lambda_per_host: f64,
    /// Fraction of sessions that are background (paper: 0.2).
    pub background_frac: f64,
    /// Write (1a) or Read (1b).
    pub pattern: Pattern,
    /// Master seed: placement, arrivals and in-fabric randomness.
    pub seed: u64,
    /// Divide the arrival rate by the replica count so the offered
    /// byte-load on the fabric is identical across 1- and 3-replica
    /// configurations. The paper's "λ = 2560" is stated per *flow*
    /// ("session (flow) scheduling…"), and only this reading keeps the
    /// 3-replica fabric below saturation — consistent with the near-equal
    /// RQ 1-/3-replica curves it reports. No binary measures the other
    /// reading (`false`); tests use it to pin small runs.
    pub normalize_load: bool,
    /// Shared-risk-aware replica placement: in addition to the paper's
    /// outside-the-client's-rack rule, replicas of one session avoid
    /// each other's shared-risk groups (same rack or same aggregation
    /// reach — see `Topology::shared_risk`), so a single agg/core event
    /// cannot strand more than one replica. Falls back to the plain rule
    /// when the fabric can't satisfy it (e.g. leaf–spine, where every
    /// leaf pair shares every spine). Churn runs compare both settings.
    pub shared_risk_placement: bool,
}

/// The paper's arrival rate expressed per host (λ = 2560/s ÷ 250 hosts).
pub const PAPER_LAMBDA_PER_HOST: f64 = 2560.0 / 250.0;

impl StorageScenario {
    /// The paper's Figure 1a configuration at a given scale.
    pub fn fig1a(sessions: usize, replicas: usize, seed: u64) -> Self {
        Self {
            sessions,
            object_bytes: 4 << 20,
            replicas,
            lambda_per_host: PAPER_LAMBDA_PER_HOST,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed,
            normalize_load: true,
            shared_risk_placement: false,
        }
    }

    /// The paper's Figure 1b configuration at a given scale.
    pub fn fig1b(sessions: usize, replicas: usize, seed: u64) -> Self {
        Self {
            pattern: Pattern::Read,
            ..Self::fig1a(sessions, replicas, seed)
        }
    }

    /// Generate the logical sessions over a topology.
    ///
    /// Clients cycle through a seeded permutation of the hosts (the
    /// "permutation traffic matrix" — every host is a client equally
    /// often and its primary peer is its permutation image); additional
    /// replicas are drawn uniformly outside the client's rack.
    pub fn generate(&self, topo: &Topology) -> Vec<LogicalSession> {
        assert!(self.replicas >= 1);
        assert!((0.0..1.0).contains(&self.background_frac));
        let hosts = topo.hosts().to_vec();
        assert!(
            hosts.len() > self.replicas,
            "not enough hosts for replica count"
        );
        let mut rng = Pcg32::new(self.seed ^ 0x5CE0_A210);

        // Permutation matrix: client order and primary peer mapping.
        let mut client_order: Vec<usize> = (0..hosts.len()).collect();
        rng.shuffle(&mut client_order);
        let peer_of = rng.derangement(hosts.len());

        // Writes deliver one object copy per replica, so the receiver-side
        // byte load scales with the replica count; reads move one copy
        // total regardless of how many replicas serve it.
        let norm = if self.normalize_load && self.pattern == Pattern::Write {
            self.replicas as f64
        } else {
            1.0
        };
        let mean_gap_ns = norm * 1e9 / (self.lambda_per_host * hosts.len() as f64);
        let mut t = 0f64;
        let mut out = Vec::with_capacity(self.sessions);
        for i in 0..self.sessions {
            t += rng.exp(mean_gap_ns);
            let client_idx = client_order[i % hosts.len()];
            let client = hosts[client_idx];

            // Primary replica: the permutation image, nudged out of the
            // client's rack if the derangement landed inside it.
            let mut replicas = Vec::with_capacity(self.replicas);
            let primary = hosts[peer_of[client_idx]];
            let primary = if topo.same_rack(client, primary) {
                draw_replica(&mut rng, topo, &hosts, client, &replicas, false)
            } else {
                primary
            };
            replicas.push(primary);
            while replicas.len() < self.replicas {
                let r = draw_replica(
                    &mut rng,
                    topo,
                    &hosts,
                    client,
                    &replicas,
                    self.shared_risk_placement,
                );
                replicas.push(r);
            }

            out.push(LogicalSession {
                index: i as u32,
                client,
                replicas,
                bytes: self.object_bytes,
                start: SimTime::from_nanos(t as u64),
                background: rng.f64() < self.background_frac,
            });
        }
        out
    }

    /// The run of this workload on `fabric` under `transport`.
    pub fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        let topo = fabric.build_with_policy(transport.policy());
        let sessions = self.generate(&topo);
        Run::healthy(topo, sessions, self.pattern, self.seed, 0xFAB, transport)
    }
}

/// Draw a replica outside the client's rack (the paper's rule), not
/// colliding with already-placed replicas. With `shared_risk_aware`, a
/// bounded number of draws additionally avoids every taken replica's
/// shared-risk group; if the fabric can't satisfy that (small pods,
/// leaf–spine), the draw falls back to the plain rule rather than spin.
fn draw_replica(
    rng: &mut Pcg32,
    topo: &Topology,
    hosts: &[NodeId],
    client: NodeId,
    taken: &[NodeId],
    shared_risk_aware: bool,
) -> NodeId {
    if shared_risk_aware {
        for _ in 0..64 {
            let r = hosts[rng.below(hosts.len() as u64) as usize];
            if r != client
                && !topo.same_rack(client, r)
                && !taken.contains(&r)
                && !taken.iter().any(|&t| topo.shared_risk(t, r))
            {
                return r;
            }
        }
    }
    loop {
        let r = hosts[rng.below(hosts.len() as u64) as usize];
        if r != client && !topo.same_rack(client, r) && !taken.contains(&r) {
            return r;
        }
    }
}

/// Parameters of the Figure 1c Incast workload: `senders` hosts each
/// hold one stripe of a `block_bytes` object and transmit to one client
/// simultaneously.
#[derive(Debug, Clone, Copy)]
pub struct IncastScenario {
    /// Number of synchronized senders.
    pub senders: usize,
    /// Total block size in bytes (paper: 256 KB and 70 KB).
    pub block_bytes: usize,
    /// Master seed.
    pub seed: u64,
}

impl IncastScenario {
    /// Pick the client and the sender set (distinct hosts, spread
    /// anywhere in the fabric as in a striped storage read).
    pub fn place(&self, topo: &Topology) -> (NodeId, Vec<NodeId>) {
        let hosts = topo.hosts().to_vec();
        assert!(hosts.len() > self.senders, "not enough hosts");
        let mut rng = Pcg32::new(self.seed ^ 0x17CA_5700);
        let client = hosts[rng.below(hosts.len() as u64) as usize];
        let mut senders = Vec::with_capacity(self.senders);
        while senders.len() < self.senders {
            let s = hosts[rng.below(hosts.len() as u64) as usize];
            if s != client && !senders.contains(&s) {
                senders.push(s);
            }
        }
        (client, senders)
    }

    /// The exchange on `fabric` under `transport`: one fetch of the
    /// block at t = 0, served by every sender (Polyraptor: one
    /// multi-source session; TCP: one stripe per sender).
    pub fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        let topo = fabric.build_with_policy(transport.policy());
        let (client, senders) = self.place(&topo);
        let session = LogicalSession {
            index: 0,
            client,
            replicas: senders,
            bytes: self.block_bytes,
            start: SimTime::ZERO,
            background: false,
        };
        Run::healthy(
            topo,
            vec![session],
            Pattern::Read,
            self.seed,
            0x1C,
            transport,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::fat_tree(4, 1_000_000_000, 10_000, netsim::RoutingPolicy::minimal())
    }

    #[test]
    fn generate_respects_parameters() {
        let t = topo();
        let sc = StorageScenario::fig1a(200, 3, 1);
        let sessions = sc.generate(&t);
        assert_eq!(sessions.len(), 200);
        for s in &sessions {
            assert_eq!(s.replicas.len(), 3);
            assert_eq!(s.bytes, 4 << 20);
            // Replicas distinct, not the client, outside its rack.
            for (i, &r) in s.replicas.iter().enumerate() {
                assert_ne!(r, s.client);
                assert!(!t.same_rack(s.client, r), "replica in client rack");
                assert!(!s.replicas[..i].contains(&r), "duplicate replica");
            }
        }
        // Arrivals strictly increasing (Poisson process).
        assert!(sessions.windows(2).all(|w| w[1].start >= w[0].start));
    }

    #[test]
    fn background_fraction_close() {
        let t = topo();
        let sc = StorageScenario::fig1a(4000, 1, 9);
        let sessions = sc.generate(&t);
        let bg = sessions.iter().filter(|s| s.background).count() as f64 / 4000.0;
        assert!((bg - 0.2).abs() < 0.03, "background fraction {bg}");
    }

    #[test]
    fn arrival_rate_close_to_lambda() {
        let t = topo(); // 16 hosts
        let sc = StorageScenario::fig1a(4000, 1, 5);
        let sessions = sc.generate(&t);
        let span_s = sessions.last().unwrap().start.as_secs_f64();
        let rate = 4000.0 / span_s;
        let expected = PAPER_LAMBDA_PER_HOST * 16.0;
        assert!(
            (rate - expected).abs() / expected < 0.1,
            "arrival rate {rate}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_differs_across_seeds() {
        let t = topo();
        let a = StorageScenario::fig1a(50, 3, 42).generate(&t);
        let b = StorageScenario::fig1a(50, 3, 42).generate(&t);
        let c = StorageScenario::fig1a(50, 3, 43).generate(&t);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.replicas, y.replicas);
            assert_eq!(x.start, y.start);
        }
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.client != y.client || x.start != y.start));
    }

    #[test]
    fn clients_spread_evenly() {
        // Permutation matrix property: with sessions = 2×hosts, every
        // host is a client exactly twice.
        let t = topo();
        let n = t.hosts().len();
        let sc = StorageScenario::fig1a(2 * n, 1, 3);
        let sessions = sc.generate(&t);
        let mut counts = std::collections::HashMap::new();
        for s in &sessions {
            *counts.entry(s.client).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    fn incast_placement_distinct() {
        let t = topo();
        let sc = IncastScenario {
            senders: 10,
            block_bytes: 256 << 10,
            seed: 4,
        };
        let (client, senders) = sc.place(&t);
        assert_eq!(senders.len(), 10);
        assert!(!senders.contains(&client));
        let set: std::collections::HashSet<_> = senders.iter().collect();
        assert_eq!(set.len(), 10);
    }
}
