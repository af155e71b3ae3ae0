//! Golden event schedules: the packet-level outcome of four k = 4
//! fat-tree runs, pinned as hashes recorded from the commit *before*
//! port releases became lazy (PR 14's parent, `0a99e00`), when every
//! transmission pushed its `Dequeue` eagerly and every ACK pushed an
//! RTO timer. The event loop now materialises a release only when a
//! packet is waiting and keeps one RTO timer per connection; these
//! constants are the proof that neither moved a simulated nanosecond:
//! every flow's `(session, start, finish)` and the fabric's packet
//! fates must hash to the eager schedule's value, on one shard and on
//! two alike.

use polyraptor_repro::netsim::{
    FabricStats, FaultPlan, NodeKind, Pcg32, SimConfig, SimTime, Simulator, Topology,
};
use polyraptor_repro::polyraptor::{PolyraptorAgent, PrConfig};
use polyraptor_repro::tcpsim::{conn_start_token, TcpAgent, TcpConfig};
use polyraptor_repro::workload::{
    build_rq_specs, build_tcp_conns, install_rq, Fabric, LogicalSession, Pattern, StorageScenario,
};

/// Dense enough that sessions overlap on 16 hosts (one arrival every
/// ≈ 0.3 ms against ≈ 2 ms per object), so queues build, NDP trims and
/// drop-tail drops: the schedule is decided by tie-breaks, not by idle
/// wires.
fn scenario(pattern: Pattern, seed: u64) -> StorageScenario {
    StorageScenario {
        sessions: 24,
        object_bytes: 256 << 10,
        replicas: 3,
        lambda_per_host: 200.0,
        background_frac: 0.2,
        pattern,
        seed,
        normalize_load: false,
        shared_risk_placement: false,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hash of every flow's `(session, start, finish)` in canonical order
/// plus the four packet fates.
fn schedule_hash(mut flows: Vec<(u32, SimTime, SimTime)>, stats: &FabricStats) -> u64 {
    flows.sort();
    let mut h = Fnv::new();
    h.word(flows.len() as u64);
    for (session, start, finish) in flows {
        h.word(u64::from(session));
        h.word(start.as_nanos());
        h.word(finish.as_nanos());
    }
    for fate in [
        stats.delivered,
        stats.trimmed,
        stats.dropped,
        stats.lost_to_fault,
    ] {
        h.word(fate);
    }
    h.0
}

/// A Polyraptor run of `sc` on the k = 4 fat-tree; `faults` builds the
/// run's fault plan (and convergence delay) from the topology and the
/// generated sessions.
fn run_rq(
    sc: &StorageScenario,
    shards: usize,
    faults: impl FnOnce(&Topology, &[LogicalSession]) -> (FaultPlan, u64),
) -> (u64, FabricStats) {
    let topo = Fabric::small().build();
    let sessions = sc.generate(&topo);
    let (plan, reroute_delay_ns) = faults(&topo, &sessions);
    let mut cfg = SimConfig::ndp(sc.seed ^ 0xFAB);
    cfg.shards = shards;
    cfg.reroute_delay_ns = reroute_delay_ns;
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, cfg);
    let hosts = sim.topology().hosts().to_vec();
    let mut seed_rng = Pcg32::new(sc.seed ^ 0xA6E27);
    for &h in &hosts {
        let s = seed_rng.next_u64();
        sim.set_agent(h, PolyraptorAgent::new(h, PrConfig::paper_default(), s));
    }
    let specs = build_rq_specs(&mut sim, &sessions, sc.pattern);
    for spec in &specs {
        install_rq(&mut sim, spec);
    }
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let flows: Vec<_> = sim
        .agents()
        .flat_map(|(_, a)| a.records.iter().map(|r| (r.session.0, r.start, r.finish)))
        .collect();
    let expected: usize = sessions
        .iter()
        .map(|ls| match (ls.background, sc.pattern) {
            (false, Pattern::Write) => ls.replicas.len(),
            _ => 1,
        })
        .sum();
    assert_eq!(flows.len(), expected, "every flow completes");
    let stats = sim.stats();
    (schedule_hash(flows, &stats), stats)
}

fn healthy(_: &Topology, _: &[LogicalSession]) -> (FaultPlan, u64) {
    (FaultPlan::new(), 0)
}

/// The same write under TCP (multi-unicast, drop-tail, per-flow ECMP).
fn run_tcp(sc: &StorageScenario, shards: usize) -> (u64, FabricStats) {
    let topo = Fabric::small().build();
    let sessions = sc.generate(&topo);
    let mut cfg = SimConfig::classic(sc.seed ^ 0xFAB);
    cfg.shards = shards;
    let mut sim: Simulator<_, TcpAgent> = Simulator::new(topo, cfg);
    let hosts = sim.topology().hosts().to_vec();
    for &h in &hosts {
        sim.set_agent(h, TcpAgent::new(h, TcpConfig::paper_default()));
    }
    let conns = build_tcp_conns(&sessions, sc.pattern);
    for c in &conns {
        sim.agent_mut(c.sender).install(c.clone());
        sim.agent_mut(c.receiver).install(c.clone());
        sim.schedule_timer(c.sender, c.start, conn_start_token(c.id));
    }
    sim.run_to_completion();
    let flows: Vec<_> = sim
        .agents()
        .flat_map(|(_, a)| a.records.iter().map(|r| (r.session, r.start, r.finish)))
        .collect();
    assert_eq!(flows.len(), conns.len(), "every connection completes");
    let stats = sim.stats();
    (schedule_hash(flows, &stats), stats)
}

/// Link, switch and flap faults inside one 2 ms convergence window,
/// struck while the ninth session's symbols are in flight, repaired in
/// two later windows: flushes land on ports whose release is pending,
/// the stale window parks packets behind dead links, and the repairs
/// kick the parked ports.
fn churn(topo: &Topology, sessions: &[LogicalSession]) -> (FaultPlan, u64) {
    let us = |t: SimTime, d: u64| t + d * 1_000;
    let t0 = sessions[8].start;
    let uplink = |sw| {
        topo.node_ports(sw)
            .iter()
            .position(|p| topo.kind(p.peer) == NodeKind::Switch)
            .expect("switch has an uplink") as u16
    };
    let edge = topo.edge_switch(sessions[8].client);
    let cores = topo.core_switches();
    // An aggregation switch of another session's pod, flapping its
    // first core uplink.
    let other = topo.edge_switch(sessions[9].client);
    let agg = topo.port(other, uplink(other)).peer;
    let plan = FaultPlan::new()
        .link_down(us(t0, 100), edge, uplink(edge))
        .switch_down(us(t0, 300), cores[0])
        .link_down(us(t0, 500), agg, uplink(agg))
        .link_up(us(t0, 700), agg, uplink(agg))
        .link_up(us(t0, 4_000), edge, uplink(edge))
        .switch_up(us(t0, 7_000), cores[0]);
    (plan, 2_000_000)
}

/// Check one scenario's hash at shards 1 and 2 against the constant
/// recorded from the eager schedule.
fn check(name: &str, golden: u64, run: impl Fn(usize) -> (u64, FabricStats)) -> FabricStats {
    let (serial, stats) = run(1);
    assert_eq!(
        serial, golden,
        "{name}: serial schedule hash {serial:#018x} differs from the eager schedule's"
    );
    let (sharded, sharded_stats) = run(2);
    assert!(sharded_stats.shard_epochs > 0, "{name}: ran sharded");
    assert_eq!(
        sharded, golden,
        "{name}: 2-shard schedule hash {sharded:#018x} differs from the eager schedule's"
    );
    stats
}

#[test]
fn multicast_write_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Write, 41);
    let stats = check("rq write", 0xF2E7_87CA_4418_FDCD, |shards| {
        run_rq(&sc, shards, healthy)
    });
    assert!(stats.trimmed > 0, "the run must congest: {stats:?}");
}

#[test]
fn multi_source_read_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Read, 42);
    let stats = check("rq read", 0x1481_6605_3574_E0D0, |shards| {
        run_rq(&sc, shards, healthy)
    });
    assert!(stats.trimmed > 0, "the run must congest: {stats:?}");
}

#[test]
fn tcp_write_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Write, 41);
    let stats = check("tcp write", 0x3DBF_EBB9_AFEC_7644, |shards| {
        run_tcp(&sc, shards)
    });
    assert!(stats.dropped > 0, "the run must congest: {stats:?}");
}

#[test]
fn churn_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Read, 43);
    let stats = check("rq churn", 0x5C6C_67CE_D6EA_7D58, |shards| {
        run_rq(&sc, shards, churn)
    });
    assert!(stats.lost_to_fault > 0, "the faults must cost packets");
    assert_eq!(stats.flaps_coalesced, 1, "the flap stayed in one window");
    assert_eq!(stats.reroutes, 3, "one window of faults, two of repairs");
}
