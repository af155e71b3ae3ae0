//! Cross-crate integration tests: the full stack (codec → protocol →
//! fabric → workload) exercised end to end.

use polyraptor_repro::netsim::{
    Ctx, NodeId, Pcg32, RoutingPolicy, SimConfig, SimTime, Simulator, Topology,
};
use polyraptor_repro::polyraptor::{
    start_token, MulticastPull, OracleMode, PolyraptorAgent, PrConfig, PrPayload, ReceiverSession,
    SenderSession, SessionId, SessionSpec, SYMBOL_SIZE,
};
use polyraptor_repro::workload::{
    build_rq_specs, foreground_goodputs, install_rq, op_results, run, Fabric, FaultScenario,
    IncastScenario, Pattern, RankCurve, RqRunOptions, StorageScenario, TcpRunOptions,
    TransferResult, Transport,
};

fn small_scenario(pattern: Pattern, replicas: usize, seed: u64) -> StorageScenario {
    StorageScenario {
        sessions: 20,
        object_bytes: 256 << 10,
        replicas,
        lambda_per_host: polyraptor_repro::workload::scenario::PAPER_LAMBDA_PER_HOST,
        background_frac: 0.2,
        pattern,
        seed,
        normalize_load: true,
    }
}

/// The scenario's flows on the 16-host fat-tree under Polyraptor.
fn rq_flows(sc: &StorageScenario, opts: RqRunOptions) -> Vec<TransferResult> {
    run(sc.build(&Fabric::small(), Transport::Rq(opts))).flows
}

/// The scenario's flows on the 16-host fat-tree under TCP.
fn tcp_flows(sc: &StorageScenario) -> Vec<TransferResult> {
    let tcp = Transport::Tcp(TcpRunOptions::default());
    run(sc.build(&Fabric::small(), tcp)).flows
}

/// A real-decoder (no counting shortcut) multicast write on a fat-tree:
/// every replica must reconstruct the exact object bytes.
#[test]
fn real_oracle_multicast_write() {
    let topo = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = topo.hosts().to_vec();
    let cfg = PrConfig::real_oracle();
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, SimConfig::ndp(11));
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, cfg, u64::from(h.0)));
    }
    let (sender, receivers) = (hosts[0], vec![hosts[4], hosts[8], hosts[12]]);
    let groups: Vec<_> = (0..4)
        .map(|_| sim.register_group(sender, &receivers))
        .collect();
    let spec = SessionSpec::multicast(
        SessionId(5),
        300_000,
        sender,
        receivers.clone(),
        groups,
        SimTime::ZERO,
    );
    for &h in spec.senders.iter().chain(&spec.receivers) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
    sim.run_to_completion();
    // The real oracle asserts decoded bytes internally; here we check
    // every replica finished and at a sane rate.
    for &r in &receivers {
        let rec = &sim.agent(r).records[0];
        assert_eq!(rec.data_len, 300_000);
        assert!(rec.goodput_gbps() > 0.4, "goodput {}", rec.goodput_gbps());
    }
}

/// Real-decoder multi-source fetch: symbols from three independent
/// senders must assemble into one decodable object (no duplicate ESIs).
#[test]
fn real_oracle_multi_source_fetch() {
    let topo = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = topo.hosts().to_vec();
    let cfg = PrConfig::real_oracle();
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, SimConfig::ndp(13));
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, cfg, u64::from(h.0)));
    }
    let spec = SessionSpec::multi_source(
        SessionId(9),
        400_000,
        vec![hosts[5], hosts[9], hosts[13]],
        hosts[0],
        SimTime::ZERO,
    );
    for &h in spec.senders.iter().chain(&spec.receivers) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
    sim.run_to_completion();
    let rec = &sim.agent(hosts[0]).records[0];
    assert_eq!(rec.data_len, 400_000);
    assert!(rec.goodput_gbps() > 0.4);
}

/// A seeded 3-replica read scenario under Polyraptor, staged by hand
/// so the agents can be inspected afterwards: per-flow `(session, start,
/// finish)`, the sum of `objects_encoded()` over all hosts, and the
/// receivers that got a repair symbol before their decode — those that
/// ran the solver or finished past `k` symbols, since one that got only
/// source symbols finishes on the fast path at exactly `k`.
fn staged_read(oracle: OracleMode, shards: usize) -> (Vec<(u32, SimTime, SimTime)>, u64, u64) {
    let sc = StorageScenario {
        sessions: 16,
        background_frac: 0.0,
        ..small_scenario(Pattern::Read, 3, 33)
    };
    let topo = Fabric::small().build();
    let sessions = sc.generate(&topo);
    let mut sim_cfg = SimConfig::ndp(sc.seed ^ 0xFAB);
    sim_cfg.shards = shards;
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, sim_cfg);
    let pr = PrConfig {
        oracle,
        ..PrConfig::paper_default()
    };
    let hosts = sim.topology().hosts().to_vec();
    let mut seed_rng = Pcg32::new(sc.seed ^ 0xA6E27);
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, pr, seed_rng.next_u64()));
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
    assert_eq!(sim.stats().shard_epochs > 0, shards > 1, "shard plan");
    let mut flows: Vec<_> = sim
        .agents()
        .flat_map(|(_, a)| &a.records)
        .map(|r| (r.session.0, r.start, r.finish))
        .collect();
    flows.sort_unstable();
    assert_eq!(flows.len(), sc.sessions, "every read must complete");
    let repaired = sim
        .agents()
        .flat_map(|(_, a)| a.records.iter().map(move |r| (a, r)))
        .filter(|(a, r)| {
            let solved = a
                .receiver_session(r.session)
                .map(|rs| rs.decode_stats().solver_decodes);
            r.symbols > pr.k_for(r.data_len)
                || solved.expect("a record's session stays installed") > 0
        })
        .count() as u64;
    (flows, encoded(&sim), repaired)
}

/// With the codec in the loop a read's one receiver encodes the object
/// at most once, whatever its three replicas send: once if a repair
/// symbol reached it before its decode, never if source symbols alone
/// did. The shard count shows neither in that count nor in the results.
#[test]
fn real_oracle_read_encodes_each_object_once() {
    let (serial, encoded, repaired) = staged_read(OracleMode::Real, 1);
    assert_eq!(
        encoded, repaired,
        "one encode per receiver that got a repair ESI, not one per replica"
    );
    assert_eq!(encoded, 13, "of 16 reads");
    let (sharded, encoded, _) = staged_read(OracleMode::Real, 2);
    assert_eq!(encoded, repaired, "shards must not duplicate the encode");
    assert_eq!(serial, sharded, "per-flow results differ across shards");
    // The counting oracle never touches the codec, and the codec takes
    // no simulated time: same flows, no encoder.
    let (counting, encoded, _) = staged_read(OracleMode::Counting, 1);
    assert_eq!(encoded, 0);
    assert_eq!(counting.len(), serial.len());
}

/// Drive one multi-source session by hand: two replicas start, deliver
/// their shares (less one lost symbol) and go away; the third starts
/// only then, and its symbols still complete the decode — which the
/// real oracle checks byte for byte against the session object.
#[test]
fn late_sender_completes_the_byte_checked_decode() {
    let cfg = PrConfig::real_oracle();
    let (receiver, replicas) = (NodeId(0), [NodeId(1), NodeId(2), NodeId(3)]);
    let spec = SessionSpec::multi_source(
        SessionId(7),
        40 * SYMBOL_SIZE - 100,
        replicas.to_vec(),
        receiver,
        SimTime::ZERO,
    );
    let mut rs = ReceiverSession::new(spec.clone(), receiver, &cfg, 1);
    // Start `node`'s sender and keep pulling until it has emitted
    // `symbols` symbols; returns the first `symbols` of them as (sender
    // index, esi).
    let emit = |node: NodeId, symbols: usize| {
        let mut ss = SenderSession::new(spec.clone(), node, &cfg);
        let mut out = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, node);
        ss.start(node, &cfg, &mut ctx);
        while out.len() < symbols {
            for pkt in ctx.queued_sends() {
                let PrPayload::Symbol {
                    esi, sender_idx, ..
                } = pkt.payload
                else {
                    panic!("senders emit only symbols");
                };
                out.push((sender_idx, esi));
            }
            ctx = Ctx::detached(SimTime::ZERO, node);
            ss.on_pull(receiver, out.len() as u64, false, 0, node, &cfg, &mut ctx);
        }
        out.truncate(symbols);
        (ss, out)
    };

    let (a, from_a) = emit(replicas[0], 14);
    let (b, from_b) = emit(replicas[1], 13);
    let mut done = false;
    for (idx, esi) in from_a.into_iter().chain(from_b.into_iter().skip(1)) {
        done |= rs.on_symbol(idx, esi, SimTime::ZERO);
    }
    assert!(!done, "a third of the object is still missing");
    drop((a, b));

    let (_c, from_c) = emit(replicas[2], 24);
    for (idx, esi) in from_c {
        if rs.on_symbol(idx, esi, SimTime::ZERO) {
            done = true;
            break;
        }
    }
    assert!(done, "the late sender's symbols complete the decode");
    assert!(rs.symbols_received() >= cfg.k_for(spec.data_len));
    assert!(rs.encoded(), "the receiver's oracle wrote the symbols");
}

/// Different seeds must actually change the run (that equal seeds give
/// equal runs is `tests/identity.rs`).
#[test]
fn different_seeds_differ() {
    let a = rq_flows(
        &small_scenario(Pattern::Write, 3, 1),
        RqRunOptions::default(),
    );
    let b = rq_flows(
        &small_scenario(Pattern::Write, 3, 2),
        RqRunOptions::default(),
    );
    assert!(a.iter().zip(&b).any(|(x, y)| x.finish != y.finish));
}

/// Figure-1a shape at test scale: RQ replication flows beat TCP
/// multi-unicast flows, which are capped near uplink/3.
#[test]
fn fig1a_shape_holds_at_small_scale() {
    let sc = small_scenario(Pattern::Write, 3, 5);
    let rq = RankCurve::new(foreground_goodputs(&rq_flows(&sc, RqRunOptions::default())));
    let tcp = RankCurve::new(foreground_goodputs(&tcp_flows(&sc)));
    assert!(
        rq.median() > 1.5 * tcp.median(),
        "RQ median {} should clearly beat TCP multi-unicast median {}",
        rq.median(),
        tcp.median()
    );
    assert!(
        tcp.at(0) < 0.45,
        "TCP 3-replica flows are capped near uplink/3"
    );
}

/// Figure-1c shape: Polyraptor keeps Incast goodput near line rate where
/// TCP collapses.
#[test]
fn incast_eliminated_for_rq_only() {
    let sc = IncastScenario {
        senders: 12,
        block_bytes: 256 << 10,
        seed: 3,
    };
    let goodput = |transport| run(sc.build(&Fabric::small(), transport)).incast_goodput_gbps();
    let rq = goodput(Transport::Rq(RqRunOptions::default()));
    let tcp = goodput(Transport::Tcp(TcpRunOptions::default()));
    assert!(rq > 0.7, "RQ incast goodput {rq}");
    assert!(tcp < 0.2, "TCP should collapse, got {tcp}");
}

/// No packet is ever dropped in an NDP-configured Polyraptor run —
/// overflow becomes trimmed headers instead (the Incast-free mechanism).
#[test]
fn ndp_fabric_never_drops() {
    let topo = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = topo.hosts().to_vec();
    let cfg = PrConfig::paper_default();
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, SimConfig::ndp(17));
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, cfg, u64::from(h.0)));
    }
    // Hard incast: 12 senders blast one receiver simultaneously.
    let spec = SessionSpec::multi_source(
        SessionId(1),
        2 << 20,
        hosts[1..13].to_vec(),
        hosts[0],
        SimTime::ZERO,
    );
    for &h in spec.senders.iter().chain(&spec.receivers) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
    sim.run_to_completion();
    assert_eq!(sim.stats().dropped, 0, "trimming fabric must not drop");
    assert!(sim.stats().trimmed > 0, "overload must trim");
    assert_eq!(sim.agent(hosts[0]).records.len(), 1);
}

/// Multicast pull policies: both complete; strict aggregation is never
/// faster on the op metric.
#[test]
fn multicast_policies_both_complete() {
    let sc = small_scenario(Pattern::Write, 3, 9);
    let any = rq_flows(&sc, RqRunOptions::default());
    let mut strict_opts = RqRunOptions::default();
    strict_opts.pr.multicast = MulticastPull::All { detach_after: None };
    let all = rq_flows(&sc, strict_opts);
    let any_ops = op_results(&any, sc.object_bytes);
    let all_ops = op_results(&all, sc.object_bytes);
    assert_eq!(any_ops.len(), all_ops.len());
    let mean_any = polyraptor_repro::workload::mean(
        &any_ops.iter().map(|o| o.goodput_gbps()).collect::<Vec<_>>(),
    );
    let mean_all = polyraptor_repro::workload::mean(
        &all_ops.iter().map(|o| o.goodput_gbps()).collect::<Vec<_>>(),
    );
    assert!(
        mean_any >= mean_all * 0.9,
        "pull coalescing should not lose to strict aggregation ({mean_any} vs {mean_all})"
    );
}

/// Strict aggregation with straggler detach: a core failure mid-write
/// (repaired well after convergence) and the same writes healthy, each
/// pinned by flow count, events and schedule digest. A detached
/// replica's batched nudge refills its own unicast window, and a
/// receiver detaches only after more than `detach_after` blocked rounds;
/// breaking either moves a digest.
#[test]
fn straggler_detach_schedule_is_pinned() {
    let mut opts = RqRunOptions::default();
    opts.pr.multicast = MulticastPull::All {
        detach_after: Some(4),
    };
    let failed = FaultScenario {
        recover_after_frac: Some(30.0),
        ..FaultScenario::fig1_failure(12, 256 << 10, 11)
    };
    for (name, sc, pin) in [
        ("core failure", failed, (36, 93_223, 0x1734_c8f0_d5e1_3cab)),
        (
            "healthy",
            failed.healthy(),
            (36, 87_455, 0xa169_f0d5_8607_7d34),
        ),
    ] {
        let rep = run(sc.build(&Fabric::small(), Transport::Rq(opts)));
        let got = (
            rep.flows.len(),
            rep.fabric.events,
            rep.fabric.schedule_digest,
        );
        assert_eq!(got, pin, "{name}: flows, events, digest");
    }
}

/// Read pattern under TCP: partitioned fetch emulation completes and
/// produces one flow per replica.
#[test]
fn tcp_partitioned_fetch_completes() {
    let sc = small_scenario(Pattern::Read, 3, 4);
    let res = tcp_flows(&sc);
    let fg: Vec<_> = res.iter().filter(|r| !r.background).collect();
    // Each foreground op yields 3 stripe flows.
    let ops = op_results(&res, sc.object_bytes);
    assert_eq!(ops.len(), 20);
    assert!(fg.len() > 20);
}

/// Mixed roles: one host acting simultaneously as sender, receiver and
/// replica across overlapping sessions.
#[test]
fn overlapping_roles_on_one_host() {
    let topo = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = topo.hosts().to_vec();
    let cfg = PrConfig::paper_default();
    let mut sim: Simulator<_, PolyraptorAgent> = Simulator::new(topo, SimConfig::ndp(23));
    for &h in &hosts {
        sim.set_agent(h, PolyraptorAgent::new(h, cfg, u64::from(h.0)));
    }
    let pivot = hosts[0];
    let specs = vec![
        SessionSpec::unicast(SessionId(1), 200_000, pivot, hosts[5], SimTime::ZERO),
        SessionSpec::unicast(
            SessionId(2),
            200_000,
            hosts[9],
            pivot,
            SimTime::from_micros(50),
        ),
        SessionSpec::multi_source(
            SessionId(3),
            200_000,
            vec![hosts[5], hosts[9]],
            hosts[13],
            SimTime::from_micros(100),
        ),
    ];
    for spec in &specs {
        for &h in spec.senders.iter().chain(&spec.receivers) {
            sim.agent_mut(h).install(spec.clone());
            sim.schedule_timer(h, spec.start, start_token(spec.id));
        }
    }
    sim.run_to_completion();
    assert_eq!(sim.agent(hosts[5]).records.len(), 1);
    assert_eq!(sim.agent(pivot).records.len(), 1);
    assert_eq!(sim.agent(hosts[13]).records.len(), 1);
}
