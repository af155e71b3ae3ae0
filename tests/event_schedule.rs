//! Golden event schedules: the packet-level outcome of four k = 4
//! fat-tree runs, pinned as hashes recorded from the commit *before*
//! port releases became lazy (PR 14's parent, `0a99e00`), when every
//! transmission pushed its `Dequeue` eagerly and every ACK pushed an
//! RTO timer. The event loop now materialises a release only when a
//! packet is waiting and keeps one RTO timer per connection; these
//! constants are the proof that neither moved a simulated nanosecond:
//! every flow's `(session, start, finish)` and the fabric's packet
//! fates must hash to the eager schedule's value. Beside each hash is
//! the run's schedule digest, recorded when the digest was added: it
//! moves if any executed event does, where the hash sees only flows
//! and fates. That a run is the same at every shard count is
//! `tests/identity.rs`.

use polyraptor_repro::netsim::{FabricStats, FaultPlan, NodeKind, SimTime, Topology};
use polyraptor_repro::workload::{
    run, Fabric, LogicalSession, Pattern, RqRunOptions, RunReport, StorageScenario, TcpRunOptions,
    Transport,
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
fn schedule_hash(rep: &RunReport) -> u64 {
    let mut flows: Vec<_> = rep
        .flows
        .iter()
        .map(|f| (f.session, f.start, f.finish))
        .collect();
    flows.sort();
    let mut h = Fnv::new();
    h.word(flows.len() as u64);
    for (session, start, finish) in flows {
        h.word(u64::from(session));
        h.word(start.as_nanos());
        h.word(finish.as_nanos());
    }
    let stats = &rep.fabric;
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

/// A run of `sc` on the k = 4 fat-tree; `faults` builds the run's fault
/// plan (and convergence delay) from the topology and the generated
/// sessions. [`run`] checks that every flow completes.
fn run_on_fat_tree(
    sc: &StorageScenario,
    transport: Transport,
    faults: impl FnOnce(&Topology, &[LogicalSession]) -> (FaultPlan, u64),
) -> RunReport {
    let mut r = sc.build(&Fabric::small(), transport);
    (r.faults, r.reroute_delay_ns) = faults(&r.topo, &r.sessions);
    run(r)
}

fn healthy(_: &Topology, _: &[LogicalSession]) -> (FaultPlan, u64) {
    (FaultPlan::new(), 0)
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

/// Check one run's hash against the constant recorded from the eager
/// schedule, then its schedule digest against the one recorded when
/// the digest was added (the hash sees flows and fates; the digest
/// sees every executed event).
fn check(name: &str, golden: u64, digest: u64, rep: RunReport) -> FabricStats {
    let hash = schedule_hash(&rep);
    assert_eq!(
        hash, golden,
        "{name}: schedule hash {hash:#018x} differs from the eager schedule's"
    );
    let got = rep.fabric.schedule_digest;
    assert_eq!(got, digest, "{name}: schedule digest {got:#018x}");
    rep.fabric
}

fn rq() -> Transport {
    Transport::Rq(RqRunOptions::default())
}

#[test]
fn multicast_write_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Write, 41);
    let rep = run_on_fat_tree(&sc, rq(), healthy);
    let stats = check(
        "rq write",
        0xF2E7_87CA_4418_FDCD,
        0xCB26_DF5C_40D8_BEF5,
        rep,
    );
    assert!(stats.trimmed > 0, "the run must congest: {stats:?}");
}

#[test]
fn multi_source_read_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Read, 42);
    let rep = run_on_fat_tree(&sc, rq(), healthy);
    let stats = check("rq read", 0x1481_6605_3574_E0D0, 0x04C4_2504_8554_7FB7, rep);
    assert!(stats.trimmed > 0, "the run must congest: {stats:?}");
}

#[test]
fn tcp_write_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Write, 41);
    let tcp = Transport::Tcp(TcpRunOptions::default());
    let stats = check(
        "tcp write",
        0x3DBF_EBB9_AFEC_7644,
        0xDDC5_572A_E4F8_9D67,
        run_on_fat_tree(&sc, tcp, healthy),
    );
    assert!(stats.dropped > 0, "the run must congest: {stats:?}");
}

#[test]
fn churn_matches_the_eager_schedule() {
    let sc = scenario(Pattern::Read, 43);
    let stats = check(
        "rq churn",
        0x5C6C_67CE_D6EA_7D58,
        0x9DFA_6090_52FD_3E62,
        run_on_fat_tree(&sc, rq(), churn),
    );
    assert!(stats.lost_to_fault > 0, "the faults must cost packets");
    assert_eq!(stats.flaps_coalesced, 1, "the flap stayed in one window");
    assert_eq!(stats.reroutes, 3, "one window of faults, two of repairs");
}
