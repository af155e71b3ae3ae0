//! Fabric-dynamics scenario: a Figure-1-style replicated storage
//! workload hit by a core-switch failure mid-run.
//!
//! This is where the paper's robustness story meets an actively hostile
//! fabric: Polyraptor (rateless coding + per-packet spraying) should
//! ride through the failure — the fabric reroutes, lost coded symbols
//! are simply replaced by later ones, multicast trees are repaired —
//! while the TCP multi-unicast baseline, whose flows are ECMP-pinned to
//! one path each, eats retransmission timeouts and inflates its tail.
//!
//! The victim switch is chosen deterministically as the core-layer
//! switch that the most ECMP-pinned baseline flows cross *while the
//! failure is active* (predicted by replaying the fabric's ECMP hash),
//! so the comparison is guaranteed to be about failure handling rather
//! than about a fault that nobody's traffic noticed.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use netsim::{FaultPlan, NodeId, SimTime, Topology};

use crate::runner::{build_tcp_conns, Fabric, Run, Transport};
use crate::scenario::{LogicalSession, Pattern, StorageScenario};

/// Control-plane convergence after a detected failure: 25 ms covers
/// failure detection plus route recomputation on a data-centre fabric.
/// During the window the dead switch blackholes whatever is forwarded
/// into it — ECMP-pinned flows stall end-to-end (their whole window
/// crosses one path), while sprayed flows lose only the fraction of
/// packets hashed onto dead paths. Both transports run under the same
/// delay; the asymmetry in outcome is the point of the experiment.
pub const REROUTE_DELAY_NS: u64 = 25_000_000;

/// Parameters of the core-failure storage scenario.
#[derive(Debug, Clone, Copy)]
pub struct FaultScenario {
    /// Replicated write sessions (all foreground).
    pub sessions: usize,
    /// Object size per session in bytes.
    pub object_bytes: usize,
    /// Replicas per session (3 = the paper's replication factor).
    pub replicas: usize,
    /// When the victim core switch fails, as a fraction of the ideal
    /// line-rate transfer time *after the first session's arrival* —
    /// protocol overhead makes every real transfer slower than ideal, so
    /// any fraction in (0, 1) strikes the first session mid-transfer.
    /// `None` runs the identical workload on a healthy fabric (the
    /// tail-comparison baseline).
    pub fail_after_frac: Option<f64>,
    /// Optional repair, as a further fraction of the ideal transfer time
    /// after the failure instant.
    pub recover_after_frac: Option<f64>,
    /// Master seed (placement, arrivals, fabric randomness).
    pub seed: u64,
}

impl FaultScenario {
    /// The Figure-1-style configuration: 3-replica writes with the
    /// paper's arrival process, core failure at 50 % of the ideal
    /// line-rate transfer time into the first session.
    pub fn fig1_failure(sessions: usize, object_bytes: usize, seed: u64) -> Self {
        Self {
            sessions,
            object_bytes,
            replicas: 3,
            fail_after_frac: Some(0.5),
            recover_after_frac: None,
            seed,
        }
    }

    /// The same scenario with the failure removed (healthy baseline).
    pub fn healthy(&self) -> Self {
        Self {
            fail_after_frac: None,
            recover_after_frac: None,
            ..*self
        }
    }

    /// The ideal transfer time of one object in nanoseconds at the
    /// fabric's access-link rate — the fastest conceivable transfer,
    /// and the time base for the failure offsets.
    fn ideal_transfer_ns(&self, topo: &Topology) -> u64 {
        let host = topo.hosts()[0];
        let rate_bps = topo.port(host, 0).rate_bps;
        ((self.object_bytes as u128 * 8 * 1_000_000_000) / rate_bps as u128) as u64
    }

    /// The absolute failure instant on a given fabric: the first
    /// session's arrival plus `fail_after_frac` of the ideal transfer
    /// time. Deterministic — both transport runs and the victim choice
    /// use the same value.
    fn fault_time(&self, topo: &Topology, sessions: &[LogicalSession]) -> Option<SimTime> {
        let frac = self.fail_after_frac?;
        assert!(frac > 0.0, "failure must strike after traffic starts");
        let first = sessions
            .iter()
            .map(|s| s.start)
            .min()
            .expect("scenario has sessions");
        let offset = (self.ideal_transfer_ns(topo) as f64 * frac) as u64;
        Some(SimTime::from_nanos(first.as_nanos() + offset))
    }

    /// The underlying storage workload (shared verbatim by the
    /// Polyraptor and TCP runs, like every paired experiment here).
    fn storage(&self) -> StorageScenario {
        StorageScenario {
            object_bytes: self.object_bytes,
            background_frac: 0.0,
            ..StorageScenario::fig1a(self.sessions, self.replicas, self.seed)
        }
    }

    /// Deterministically pick the victim: the core-layer switch (no
    /// attached hosts) crossed by the most ECMP-pinned baseline flows
    /// that are in flight when the failure strikes. Ties break to the
    /// lowest switch id; a healthy scenario weighs every flow.
    pub fn victim_core(&self, topo: &Topology) -> NodeId {
        let sessions = self.storage().generate(topo);
        let fault_time = self.fault_time(topo, &sessions);
        self.victim_core_of(topo, &sessions, fault_time)
    }

    fn victim_core_of(
        &self,
        topo: &Topology,
        sessions: &[LogicalSession],
        fault_time: Option<SimTime>,
    ) -> NodeId {
        let cores = topo.core_switches();
        assert!(
            !cores.is_empty(),
            "fault scenario needs a multi-tier fabric with transit switches"
        );
        let mut hits: BTreeMap<u32, usize> = cores.iter().map(|c| (c.0, 0)).collect();
        let conns = build_tcp_conns(sessions, Pattern::Write);
        for c in &conns {
            if let Some(at) = fault_time {
                // Flows starting after routes converge are spared by the
                // reroute; anything starting before the failure *or*
                // inside the convergence window is pinned via the stale
                // routes and counts towards the victim weighting.
                if c.start.as_nanos() > at.as_nanos() + REROUTE_DELAY_NS {
                    continue;
                }
            }
            for at in topo.pinned_path(c.data_flow(), c.sender, c.receiver) {
                if let Some(n) = hits.get_mut(&at.0) {
                    *n += 1;
                }
            }
        }
        let (&id, _) = hits
            .iter()
            .max_by_key(|&(&id, &n)| (n, Reverse(id)))
            .expect("at least one core switch");
        NodeId(id)
    }

    /// The fault plan aimed at `victim` on a given fabric.
    fn plan(&self, topo: &Topology, victim: NodeId, fault_time: Option<SimTime>) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if let Some(at) = fault_time {
            plan = plan.switch_down(at, victim);
            if let Some(frac) = self.recover_after_frac {
                assert!(frac > 0.0, "recovery must follow the failure");
                let offset = (self.ideal_transfer_ns(topo) as f64 * frac) as u64;
                plan = plan.switch_up(SimTime::from_nanos(at.as_nanos() + offset), victim);
            }
        }
        plan
    }

    /// The run on `fabric` under `transport`, aimed at the victim it
    /// chooses there ([`FaultScenario::victim_core`] of the run's
    /// topology). The report's first fault instant is the failure.
    /// Every Polyraptor session must complete — rerouting plus coded
    /// repair is the claim under test — while TCP's ECMP-pinned flows
    /// crossing the dead core recover by retransmission timeout, the
    /// tail the report's `timeouts` and `makespan` expose.
    pub fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        let topo = fabric.build_with_policy(transport.policy());
        let sessions = self.storage().generate(&topo);
        let fail_at = self.fault_time(&topo, &sessions);
        let victim = self.victim_core_of(&topo, &sessions, fail_at);
        let faults = self.plan(&topo, victim, fail_at);
        Run {
            faults,
            reroute_delay_ns: REROUTE_DELAY_NS,
            ..Run::healthy(topo, sessions, Pattern::Write, self.seed, 0xFA17, transport)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RqRunOptions, RunReport, TcpRunOptions};

    fn small_scenario() -> FaultScenario {
        FaultScenario::fig1_failure(4, 128 << 10, 11)
    }

    fn rq(sc: &FaultScenario) -> RunReport {
        run(sc.build(&Fabric::small(), Transport::Rq(RqRunOptions::default())))
    }

    fn tcp(sc: &FaultScenario) -> RunReport {
        run(sc.build(&Fabric::small(), Transport::Tcp(TcpRunOptions::default())))
    }

    #[test]
    fn victim_is_deterministic_and_core_layer() {
        let topo = Fabric::small().build();
        let sc = small_scenario();
        let v1 = sc.victim_core(&topo);
        let v2 = sc.victim_core(&topo);
        assert_eq!(v1, v2);
        assert!(topo.core_switches().contains(&v1));
    }

    #[test]
    fn rq_survives_core_failure_on_small_fabric() {
        let sc = small_scenario();
        let rep = rq(&sc);
        // The collector asserts completion; spot-check the accounting.
        assert!(rep.fabric.reroutes >= 1, "failure must trigger a reroute");
        assert_eq!(rep.flows.len(), 4 * 3, "one flow per replica");
        for f in &rep.flows {
            assert!(f.goodput_gbps() > 0.0);
        }
    }

    #[test]
    fn healthy_variant_runs_without_faults() {
        let sc = small_scenario().healthy();
        let rep = rq(&sc);
        assert_eq!(rep.fabric.reroutes, 0);
        assert_eq!(rep.fabric.lost_to_fault, 0);
    }

    #[test]
    fn tcp_counts_timeouts_under_failure() {
        let sc = small_scenario();
        let faulted = tcp(&sc);
        let healthy = tcp(&sc.healthy());
        assert!(
            faulted.timeouts > healthy.timeouts,
            "core failure must cost the pinned baseline timeouts ({} vs {})",
            faulted.timeouts,
            healthy.timeouts
        );
        assert!(faulted.makespan() > healthy.makespan());
    }

    #[test]
    fn recovery_stats_cover_in_flight_flows() {
        let sc = small_scenario();
        let rep = rq(&sc);
        let stats = rep.recovery().expect("faulted run has recovery stats");
        assert_eq!(stats.flows, rep.in_flight_at(rep.fault_instants[0]));
        assert!(stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.max_ns);
        assert_eq!(
            stats.max_ns,
            *rep.recovery_latencies_ns().last().unwrap(),
            "max is the completion tail"
        );
        // Healthy runs have no failure instant, hence no recovery tail.
        let healthy = rq(&sc.healthy());
        assert!(healthy.recovery().is_none());
    }

    #[test]
    fn switch_recovery_is_exercised() {
        let mut sc = small_scenario();
        // Recover well after the convergence window so the down and up
        // events trigger two distinct recomputations.
        sc.recover_after_frac = Some(30.0);
        let rep = rq(&sc);
        assert_eq!(rep.fabric.reroutes, 2, "down and up both reroute");
    }

    #[test]
    fn failure_strikes_mid_transfer() {
        let sc = small_scenario();
        let rep = rq(&sc);
        let at = *rep.fault_instants.first().expect("faulted run");
        assert!(
            rep.in_flight_at(at) >= 1,
            "at least the first session must span the failure instant"
        );
    }
}
