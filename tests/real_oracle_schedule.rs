//! Golden schedules with the codec in the loop: two k = 4 fat-tree runs
//! under the real-decoder oracle — a 3-replica multi-source read and a
//! 3-receiver multicast write of 64 KiB objects, dense enough to trim —
//! pinned as hashes recorded from the commit *before* symbol bodies
//! became references into the sender's encoder (`4cfa1c3`), when every
//! emission allocated its symbol, the decoder kept a map of `Vec`s and
//! the canonical object was a serial `mix64` chain. Since then symbols
//! carry no bytes at all, each receiver's oracle writes source symbols
//! from the object's generator and builds an encoder only at its first
//! repair symbol. None of that may move a simulated nanosecond or a
//! symbol count: when the oracle is asked and what it answers for a given
//! ESI set are as they were, on one shard and on two alike.

use polyraptor_repro::netsim::{FabricStats, Pcg32, SimConfig, Simulator};
use polyraptor_repro::polyraptor::{PolyraptorAgent, PrConfig, SessionId};
use polyraptor_repro::rq::DecodeStats;
use polyraptor_repro::workload::{build_rq_specs, install_rq, Fabric, Pattern, StorageScenario};

/// One arrival every ≈ 0.1 ms against ≈ 0.6 ms per object on 16 hosts:
/// sessions overlap, queues build and NDP trims, so receivers lose
/// source symbols and decode through the solver.
fn scenario(pattern: Pattern, seed: u64) -> StorageScenario {
    StorageScenario {
        sessions: 24,
        object_bytes: 64 << 10,
        replicas: 3,
        lambda_per_host: 600.0,
        background_frac: 0.2,
        pattern,
        seed,
        normalize_load: false,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// What one run leaves behind: the hash of every flow's `(session,
/// start, finish, distinct symbols, trimmed headers, pulls)` in
/// canonical order plus the four packet fates, the fabric's counters,
/// the decode paths the receivers took, and `(encodes, receivers)`.
/// Checks on the way that the oracles encode exactly where a repair
/// symbol reached them: none at install, and after the run one per
/// receiver that got a repair ESI before its decode.
fn run(sc: &StorageScenario, shards: usize) -> (u64, FabricStats, DecodeStats, (u64, usize)) {
    let topo = Fabric::small().build();
    let sessions = sc.generate(&topo);
    let mut cfg = SimConfig::ndp(sc.seed ^ 0xFAB);
    cfg.shards = shards;
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, cfg);
    let hosts = sim.topology().hosts().to_vec();
    let mut seed_rng = Pcg32::new(sc.seed ^ 0xA6E27);
    for &h in &hosts {
        let s = seed_rng.next_u64();
        sim.set_agent(h, PolyraptorAgent::new(h, PrConfig::real_oracle(), s));
    }
    let specs = build_rq_specs(&mut sim, &sessions, sc.pattern);
    for spec in &specs {
        install_rq(&mut sim, spec);
    }
    let encoded = |sim: &Simulator<_, PolyraptorAgent>| -> u64 {
        sim.agents().map(|(_, a)| a.objects_encoded()).sum()
    };
    assert_eq!(encoded(&sim), 0, "installing a session must not encode");
    sim.run_to_completion();
    let receivers: usize = specs.iter().map(|spec| spec.receivers.len()).sum();

    let mut flows = Vec::new();
    let mut decodes = DecodeStats::default();
    // A receiver that got only source symbols before its decode finishes
    // on the fast path at exactly `k` of them; one that got a repair ESI
    // first either ran the solver or needed more than `k`.
    let mut repaired = 0;
    for (_, agent) in sim.agents() {
        for r in &agent.records {
            flows.push((
                r.session.0,
                r.start,
                r.finish,
                r.symbols,
                r.trimmed_seen,
                r.pulls_sent,
            ));
            let stats = agent
                .receiver_session(SessionId(r.session.0))
                .expect("a record's session stays installed")
                .decode_stats();
            decodes.fast_path_decodes += stats.fast_path_decodes;
            decodes.solver_decodes += stats.solver_decodes;
            let k = PrConfig::real_oracle().k_for(r.data_len);
            repaired += u64::from(r.symbols > k || stats.solver_decodes > 0);
        }
    }
    assert_eq!(flows.len(), receivers, "every receiver completes");
    assert_eq!(
        encoded(&sim),
        repaired,
        "one encode per receiver that got a repair ESI"
    );
    flows.sort();
    let stats = sim.stats();
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(flows.len() as u64);
    for (session, start, finish, symbols, trimmed, pulls) in flows {
        h.word(u64::from(session));
        h.word(start.as_nanos());
        h.word(finish.as_nanos());
        h.word(symbols as u64);
        h.word(trimmed);
        h.word(pulls);
    }
    for fate in [
        stats.delivered,
        stats.trimmed,
        stats.dropped,
        stats.lost_to_fault,
    ] {
        h.word(fate);
    }
    (h.0, stats, decodes, (repaired, receivers))
}

/// Check one scenario's hash at shards 1 and 2 against the constant
/// recorded from the by-value data path, and its `(encodes, receivers)`
/// against `encodes`.
fn check(name: &str, golden: u64, encodes: (u64, usize), sc: &StorageScenario) {
    let (serial, stats, decodes, serial_encodes) = run(sc, 1);
    assert_eq!(
        serial, golden,
        "{name}: serial schedule hash {serial:#018x} differs from the by-value data path's"
    );
    assert_eq!(serial_encodes, encodes, "{name}: (encodes, receivers)");
    let (sharded, sharded_stats, sharded_decodes, sharded_encodes) = run(sc, 2);
    assert!(sharded_stats.shard_epochs > 0, "{name}: ran sharded");
    assert_eq!(
        sharded, golden,
        "{name}: 2-shard schedule hash {sharded:#018x} differs from the by-value data path's"
    );
    assert_eq!(decodes, sharded_decodes, "{name}: decode paths");
    assert_eq!(
        sharded_encodes, encodes,
        "{name}: 2-shard (encodes, receivers)"
    );
    // The run must exercise what the data path changed: bodies dropped
    // by a trim, and symbols written in place around the gaps they left.
    assert!(stats.trimmed > 0, "{name}: the run must congest: {stats:?}");
    assert!(
        decodes.solver_decodes > 0 && decodes.fast_path_decodes > 0,
        "{name}: both decode paths must run: {decodes:?}"
    );
}

#[test]
fn real_oracle_read_matches_the_by_value_schedule() {
    check(
        "read",
        0x9D21_20B0_6E44_6FAE,
        (22, 24),
        &scenario(Pattern::Read, 52),
    );
}

#[test]
fn real_oracle_write_matches_the_by_value_schedule() {
    check(
        "write",
        0xC02D_40EB_A0BC_5494,
        (53, 56),
        &scenario(Pattern::Write, 51),
    );
}
