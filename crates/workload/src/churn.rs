//! Fault-churn scenario: a replicated storage *fetch* workload under a
//! sustained Poisson fault process — links fail and repair, links flap
//! faster than the control plane converges, transit switches die, and
//! **hosts** die, taking their replicas with them.
//!
//! This is where the paper's two redundancies meet: *path* redundancy
//! (spraying + reroute + restore repair) absorbs the fabric events, and
//! *data* redundancy (fountain-coded replicas) absorbs the host events —
//! a client whose replica dies re-targets a surviving replica and
//! re-pulls only the symbols its decode still needs, reusing everything
//! already received. RepFlow-style replication and FatPaths layered
//! routing claim exactly this ground; the churn report measures it:
//! completion percentiles, per-fault recovery percentiles, stranded /
//! re-targeted session counts, and the fabric's coalescing counters.
//!
//! The whole run is seeded end to end (arrivals, placement, fault
//! process, spraying), so a churn soak is byte-identical per seed like
//! every other experiment in this repo (`tests/identity.rs`).

use netsim::{FaultMix, FaultPlan, FaultProcess, Topology};
use polyraptor::{host_fail_token, host_up_token};

use crate::fault::REROUTE_DELAY_NS;
use crate::runner::{run, Fabric, RqRunOptions, Run, RunReport, Transport};
use crate::scenario::{LogicalSession, Pattern, StorageScenario};

/// Parameters of a churn soak: the storage fetch workload plus the
/// Poisson fault process sustained over it.
#[derive(Debug, Clone, Copy)]
pub struct ChurnScenario {
    /// Fetch sessions (all foreground; a dead client must always be a
    /// scripted, repairable event — background unicast writes would turn
    /// a host death into an unfinishable transfer).
    pub sessions: usize,
    /// Object size per session in bytes.
    pub object_bytes: usize,
    /// Replicas per session (3 = the paper's replication factor; host
    /// failures need >= 2 for a survivor to re-target).
    pub replicas: usize,
    /// Fault events drawn from the Poisson process.
    pub fault_events: usize,
    /// Fault events per second of simulated time.
    pub fault_rate_per_sec: f64,
    /// Every non-flap failure repairs this long after it strikes. Kept
    /// mandatory: a permanently dead client could never finish its
    /// fetch, and the soak's contract is that *everything* completes.
    pub repair_delay_ns: u64,
    /// Event class weights (see [`FaultMix`]).
    pub mix: FaultMix,
    /// Master seed (placement, arrivals, fault process, fabric).
    pub seed: u64,
}

impl ChurnScenario {
    /// The ISSUE's reference configuration: a 10-event uniform-mix
    /// Poisson run over 3-replica fetches, faults repairing after 40 ms.
    pub fn ten_event(sessions: usize, object_bytes: usize, seed: u64) -> Self {
        Self {
            sessions,
            object_bytes,
            replicas: 3,
            fault_events: 10,
            fault_rate_per_sec: 400.0,
            repair_delay_ns: 40_000_000,
            mix: FaultMix::uniform(),
            seed,
        }
    }

    /// The underlying storage workload (fetch pattern, no background).
    fn storage(&self) -> StorageScenario {
        StorageScenario {
            object_bytes: self.object_bytes,
            background_frac: 0.0,
            ..StorageScenario::fig1b(self.sessions, self.replicas, self.seed)
        }
    }

    /// The logical fetch sessions this scenario generates on a fabric —
    /// exactly what the run uses (tests introspect placement and feed
    /// [`ChurnScenario::plan`]).
    pub fn storage_sessions(&self, topo: &Topology) -> Vec<LogicalSession> {
        self.storage().generate(topo)
    }

    /// The compiled fault plan over a given fabric: the Poisson process
    /// starts at the first session arrival (faults before any traffic
    /// would test nothing) with a flap delay safely inside the 25 ms
    /// control-plane convergence window.
    pub fn plan(&self, topo: &Topology, sessions: &[LogicalSession]) -> FaultPlan {
        let first = sessions
            .iter()
            .map(|s| s.start)
            .min()
            .expect("scenario has sessions");
        FaultProcess::poisson(
            self.fault_rate_per_sec,
            self.mix,
            Some(self.repair_delay_ns),
        )
        .flap_delay(REROUTE_DELAY_NS / 5)
        .seed(self.seed ^ 0xC4_0A_11)
        .compile(topo, first, self.fault_events)
    }

    /// The soak's run on `fabric` under `transport`. A Polyraptor run
    /// also gets the control plane's host-failure notices: every client
    /// fetching from a host the plan kills learns of the death one
    /// convergence window after it strikes (or after its own session
    /// starts, for fetches that begin mid-outage) — the same lag the
    /// fabric's reroute pays — and of the revival one window after the
    /// scripted repair, re-admitting the replica to its still-open
    /// sessions. Failures already repaired by the first notice were
    /// transient; the keep-alive sweep alone covers those. TCP has no
    /// re-target, so its run gets no notices.
    pub fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        assert!(self.replicas >= 2, "churn needs a survivor to re-target");
        let topo = fabric.build_with_policy(transport.policy());
        let sessions = self.storage().generate(&topo);
        let faults = self.plan(&topo, &sessions);
        let mut notices = Vec::new();
        if let Transport::Rq(_) = transport {
            for f in &faults.host_failures(&topo) {
                for ls in sessions.iter().filter(|ls| ls.replicas.contains(&f.host)) {
                    let notify = f.at.max(ls.start) + REROUTE_DELAY_NS;
                    if f.repaired_at.is_some_and(|up| up <= notify) {
                        continue;
                    }
                    notices.push((ls.client, notify, host_fail_token(f.host)));
                    if let Some(up) = f.repaired_at {
                        let renotify = up.max(ls.start) + REROUTE_DELAY_NS;
                        notices.push((ls.client, renotify, host_up_token(f.host)));
                    }
                }
            }
        }
        Run {
            faults,
            reroute_delay_ns: REROUTE_DELAY_NS,
            notices,
            ..Run::healthy(topo, sessions, Pattern::Read, self.seed, 0xC0_17, transport)
        }
    }
}

/// [`ChurnScenario::build`] under Polyraptor, run and collapsed to one
/// flow per fetch. Kept only because `bench_e2e` calls it; ROADMAP item
/// 12 deletes it.
pub fn run_churn_rq(sc: &ChurnScenario, fabric: &Fabric, opts: &RqRunOptions) -> RunReport {
    run(sc.build(fabric, Transport::Rq(*opts))).into_ops(sc.object_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TcpRunOptions;

    fn small() -> ChurnScenario {
        ChurnScenario::ten_event(6, 128 << 10, 3)
    }

    fn rq(sc: &ChurnScenario) -> RunReport {
        run(sc.build(&Fabric::small(), Transport::Rq(RqRunOptions::default())))
    }

    #[test]
    fn churn_run_completes_every_fetch() {
        let rep = rq(&small());
        // The collector asserts per-endpoint completion; check shape.
        assert_eq!(rep.flows.len(), 6, "one fetch record per session");
        assert!(rep.fabric.reroutes >= 1, "churn must reroute");
        assert_eq!(rep.timeouts, 0);
        let c = rep.completion();
        assert!(c.p50_ns <= c.p99_ns && c.p99_ns <= c.max_ns);
    }

    #[test]
    fn churn_tcp_baseline_completes() {
        let sc = small();
        let tcp = Transport::Tcp(TcpRunOptions::default());
        let a = run(sc.build(&Fabric::small(), tcp)).into_ops(sc.object_bytes);
        assert_eq!(a.flows.len(), 6, "stripes collapse to one op per session");
        assert_eq!(a.stranded_sessions + a.retargeted_sessions, 0);
        assert!(a.fabric.reroutes >= 1, "churn must reroute");
        // Same seeded plan as the Polyraptor run: the comparison is on
        // identical fault schedules.
        let b = rq(&sc);
        assert_eq!(a.fault_instants, b.fault_instants);
        assert_eq!(a.host_failures, b.host_failures);
    }
}
