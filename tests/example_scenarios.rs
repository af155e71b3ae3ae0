//! Smoke tests for the `examples/` scenarios: every example's core path
//! (one small transfer per scenario type) must complete under the
//! facade crate, and the hand-staged ones deterministically. Scales are
//! reduced so the whole file runs in seconds; the examples themselves
//! remain the human-readable, paper-scale versions.

use polyraptor_repro::netsim::{NodeKind, SimConfig, SimTime, Simulator, Topology};
use polyraptor_repro::polyraptor::{
    start_token, PolyraptorAgent, PrConfig, SessionId, SessionSpec,
};
use polyraptor_repro::rq::{Decoder, Encoder};
use polyraptor_repro::workload::{
    run, Fabric, FaultScenario, HotspotScenario, IncastScenario, Pattern, RqRunOptions,
    StorageScenario, Transport,
};

/// Polyraptor at its defaults.
fn rq() -> Transport {
    Transport::Rq(RqRunOptions::default())
}

/// `examples/quickstart.rs` part 1: codec round-trip through 10% loss.
#[test]
fn quickstart_codec_roundtrip() {
    let object: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let encoder = Encoder::new(&object, 256).expect("encode");
    let k = encoder.params().k;
    let mut decoder = Decoder::new(encoder.params());
    let mut received = 0usize;
    for esi in 0..k as u32 {
        if esi % 10 != 3 {
            decoder.push(esi, encoder.symbol(esi));
            received += 1;
        }
    }
    let mut esi = k as u32;
    while received < k + 2 {
        decoder.push(esi, encoder.symbol(esi));
        esi += 1;
        received += 1;
    }
    assert_eq!(decoder.try_decode().expect("k+2 symbols decode"), object);
}

/// `examples/quickstart.rs` part 2: one unicast transfer over a 2-host
/// fabric with the real decoder in the loop.
fn quickstart_unicast_once() -> u64 {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Host);
    let s = topo.add_node(NodeKind::Switch);
    let b = topo.add_node(NodeKind::Host);
    topo.connect(a, s, 1_000_000_000, 10_000);
    topo.connect(b, s, 1_000_000_000, 10_000);
    topo.compute_routes();

    let cfg = PrConfig::real_oracle();
    let mut sim = Simulator::new(topo, SimConfig::ndp(7));
    sim.set_agent(a, PolyraptorAgent::new(a, cfg, 1));
    sim.set_agent(b, PolyraptorAgent::new(b, cfg, 2));

    let spec = SessionSpec::unicast(SessionId(0), 64 * 1440, a, b, SimTime::ZERO);
    sim.agent_mut(a).install(spec.clone());
    sim.agent_mut(b).install(spec.clone());
    sim.schedule_timer(a, spec.start, start_token(spec.id));
    sim.schedule_timer(b, spec.start, start_token(spec.id));
    sim.run_to_completion();

    let rec = &sim.agent(b).records[0];
    assert_eq!(rec.data_len, 64 * 1440);
    assert!(rec.goodput_gbps() > 0.5, "goodput {}", rec.goodput_gbps());
    rec.duration_ns()
}

#[test]
fn quickstart_unicast_transfer_is_deterministic() {
    assert_eq!(quickstart_unicast_once(), quickstart_unicast_once());
}

/// `examples/distributed_storage.rs`: replicated writes under
/// background traffic, at 6-session scale.
#[test]
fn distributed_storage_write_completes() {
    let sc = StorageScenario {
        sessions: 6,
        object_bytes: 128 << 10,
        replicas: 3,
        lambda_per_host: polyraptor_repro::workload::scenario::PAPER_LAMBDA_PER_HOST,
        background_frac: 0.2,
        pattern: Pattern::Write,
        seed: 42,
        normalize_load: true,
        shared_risk_placement: false,
    };
    let a = run(sc.build(&Fabric::small(), rq())).flows;
    assert!(!a.is_empty());
    for r in &a {
        assert!(r.finish > r.start, "session {} never finished", r.session);
    }
}

/// `examples/multi_source_fetch.rs`: one block fetched from three
/// replicas at once, bytes verified by the real oracle.
fn multi_source_fetch_once() -> u64 {
    let topo = Fabric::small().build();
    let hosts = topo.hosts().to_vec();
    let client = hosts[0];
    let replicas = vec![hosts[5], hosts[9], hosts[13]];
    let cfg = PrConfig::real_oracle();
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, SimConfig::ndp(3));
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, cfg, u64::from(h.0)));
    }
    let bytes = 100_000;
    let spec = SessionSpec::multi_source(SessionId(1), bytes, replicas, client, SimTime::ZERO);
    for &h in spec.senders.iter().chain(spec.receivers.iter()) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
    sim.run_to_completion();
    let rec = &sim.agent(client).records[0];
    assert_eq!(rec.data_len, bytes);
    assert!(rec.goodput_gbps() > 0.4, "goodput {}", rec.goodput_gbps());
    rec.duration_ns()
}

#[test]
fn multi_source_fetch_is_deterministic() {
    assert_eq!(multi_source_fetch_once(), multi_source_fetch_once());
}

/// `examples/incast.rs`: synchronized many-to-one burst; Polyraptor
/// must stay near line rate at small scale too.
#[test]
fn incast_burst_completes() {
    let sc = IncastScenario {
        senders: 4,
        block_bytes: 64 << 10,
        seed: 2,
    };
    let g = run(sc.build(&Fabric::small(), rq())).incast_goodput_gbps();
    assert!(g > 0.5, "incast goodput {g}");
}

/// `examples/fabric_faults.rs`: a core switch dies mid-transfer;
/// Polyraptor reroutes, repairs its trees, and completes every session.
#[test]
fn fabric_faults_scenario_completes() {
    let sc = FaultScenario::fig1_failure(3, 64 << 10, 7);
    let rep = run(sc.build(&Fabric::small(), rq()));
    assert_eq!(rep.flows.len(), 3 * 3, "one flow per replica, all complete");
    assert_eq!(rep.fabric.reroutes, 1);
    assert!(rep.fabric.trees_repaired > 0);
}

/// The new topology generators carry real workloads: replicated writes
/// complete on an oversubscribed leaf–spine and on a Jellyfish random
/// graph exactly as they do on the fat-tree.
#[test]
fn storage_writes_complete_on_leaf_spine_and_jellyfish() {
    let sc = StorageScenario {
        sessions: 6,
        object_bytes: 64 << 10,
        replicas: 3,
        lambda_per_host: polyraptor_repro::workload::scenario::PAPER_LAMBDA_PER_HOST,
        background_frac: 0.0,
        pattern: Pattern::Write,
        seed: 5,
        normalize_load: true,
        shared_risk_placement: false,
    };
    for fabric in [Fabric::small_leaf_spine(), Fabric::small_jellyfish()] {
        let results = run(sc.build(&fabric, rq())).flows;
        assert_eq!(results.len(), 18, "all replicas complete on {fabric:?}");
        for r in &results {
            assert!(r.goodput_gbps() > 0.0);
        }
    }
}

/// `examples/hotspot.rs`: transfers over a partially degraded fabric
/// with sprayed routing.
#[test]
fn hotspot_transfers_complete() {
    let sc = HotspotScenario {
        transfers: 4,
        object_bytes: 128 << 10,
        degraded_frac: 0.3,
        degraded_rate_frac: 0.1,
        seed: 11,
    };
    let res = run(sc.build(&Fabric::small(), rq())).flows;
    assert_eq!(res.len(), 4);
    for r in &res {
        assert!(r.goodput_gbps() > 0.0);
    }
}
