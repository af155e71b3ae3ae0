// Faults: switch, link and host failures, reroutes and their
// convergence window, flaps, routing layers that die mid-window, the
// Poisson fault process, and the recorder's story of a fault run.

#[test]
fn switch_failure_reroutes_and_drops_in_flight() {
    let (mut sim, src, dst, agg) = fat_tree_sim(SimConfig::ndp(0), NoTelemetry);
    burst(&mut sim, src, dst, 40);
    // The NIC drains one packet per 12 us, so the stream spans
    // ~480 us; kill the agg mid-stream and restore near the end.
    let plan = FaultPlan::new()
        .switch_down(SimTime::from_micros(100), agg)
        .switch_up(SimTime::from_micros(400), agg);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.reroutes, 2, "down + up each recompute routes");
    assert!(
        stats.lost_to_fault > 0,
        "mid-stream agg death must catch packets in flight or queued"
    );
    let got = sim.agent(dst).received.len();
    assert_eq!(
        got as u64 + stats.lost_to_fault,
        40,
        "every packet either arrives or is accounted as a fault loss"
    );
    assert!(
        got >= 30,
        "the surviving agg must carry the stream (got {got})"
    );
    assert_eq!(stats.dropped, 0, "no congestion drops at this load");
}

#[test]
fn link_failure_loses_queued_packets_and_recovers() {
    let (mut sim, a, b) = two_host_sim(SimConfig::ndp(4));
    burst(&mut sim, a, b, 20);
    // The a—switch link dies with most of the burst still queued in
    // a's NIC, then comes back; the flushed packets are gone for
    // good but traffic sent after the repair flows again.
    let plan = FaultPlan::new()
        .link_down(SimTime::from_micros(30), a, 0)
        .link_up(SimTime::from_micros(200), a, 0);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    assert!(stats.lost_to_fault >= 15, "queued burst flushed");
    // After repair the link works: send another packet.
    sim.agent_mut(a).to_send.push(data_pkt(a, b, 99));
    sim.schedule_timer(a, SimTime::from_micros(500), 0);
    sim.run_to_completion();
    assert!(sim.agent(b).received.iter().any(|(_, p)| *p == P::Data(99)));
}

#[test]
fn convergence_window_strands_nothing() {
    // With a non-zero convergence delay, the stale routes keep
    // spraying onto the dead link until the deferred reroute fires;
    // those packets must be flushed and accounted as fault losses,
    // never silently stranded in a parked queue.
    let mut cfg = SimConfig::ndp(13);
    cfg.reroute_delay_ns = 200_000; // 200 us of stale routing
    let (mut sim, src, dst, _) = fat_tree_sim(cfg, NoTelemetry);
    let (edge, up) = uplink(sim.topology(), src);
    burst(&mut sim, src, dst, 40);
    let plan = FaultPlan::new().link_down(SimTime::from_micros(100), edge, up);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    let got = sim.agent(dst).received.len();
    assert!(stats.lost_to_fault > 0, "the dead uplink must cost packets");
    assert_eq!(
        got as u64 + stats.lost_to_fault,
        40,
        "every packet arrives or is accounted as a fault loss"
    );
    assert!(got >= 20, "the surviving uplink carries the rest");
}

#[test]
fn access_link_failure_stays_stale_until_the_reroute() {
    // A host's `cut` bit follows the mask the routes were computed
    // with, never the live mask: while the control plane converges,
    // every switch keeps forwarding towards the dead access link
    // (all five switch hops, the ToR's last hop included) and the
    // packets die at the ToR; only the reroute makes the first
    // switch refuse them.
    let mut cfg = SimConfig::ndp(13);
    cfg.reroute_delay_ns = 200_000;
    let (mut sim, src, dst, _) = fat_tree_sim(cfg, NoTelemetry);
    burst(&mut sim, src, dst, 10);
    // The burst is strung out over 120 us of NIC serialization and
    // the first two packets land at 132 and 144 us: the failure at 150 us splits
    // it, the reroute at 350 us finds the rest parked at the ToR.
    let plan = FaultPlan::new().link_down(SimTime::from_micros(150), dst, 0);
    sim.schedule_faults(&plan);
    sim.run_until(SimTime::from_micros(349));
    let stale = sim.stats();
    assert_eq!(stale.reroutes, 0, "still inside the convergence window");
    assert_eq!(
        stale.layer_forwarded[0], 50,
        "all 10 packets took all 5 switch hops towards the dead link"
    );
    sim.run_to_completion();
    let converged = sim.stats();
    let got = sim.agent(dst).received.len() as u64;
    assert_eq!(converged.reroutes, 1);
    assert_eq!(converged.route_dests_rebuilt, 0, "a bit flip, no column");
    assert_eq!((got, converged.lost_to_fault), (2, 8));
    // After the reroute the first switch has no route: nothing is
    // forwarded, every packet is a fault loss on the spot.
    for i in 10..20 {
        sim.agent_mut(src).to_send.push(data_pkt(src, dst, i));
    }
    sim.schedule_timer(src, SimTime::from_micros(1000), 0);
    sim.run_to_completion();
    let refused = sim.stats();
    assert_eq!(
        refused.layer_forwarded[0], 50,
        "refused at the first switch"
    );
    assert_eq!(refused.lost_to_fault, 18);
    assert_eq!(sim.agent(dst).received.len() as u64, got);
}

#[test]
fn multicast_tree_repair_after_core_failure() {
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let cores = t.core_switches();
    let hosts = t.hosts().to_vec();
    let mut sim = echo_sim(t, SimConfig::ndp(8), NoTelemetry);
    let s = hosts[0];
    let receivers = [hosts[5], hosts[9], hosts[13]];
    let gid = sim.register_group(s, &receivers);
    // Kill the lowest-id core the tree actually crosses (the tests
    // module can see the private table); the repair must re-tree
    // around it.
    let victim = sim.control.groups[gid.0 as usize]
        .tree
        .hops()
        .map(|(n, _)| n)
        .find(|n| cores.contains(n))
        .expect("inter-pod multicast tree crosses a core");
    let plan = FaultPlan::new().switch_down(SimTime::from_micros(100), victim);
    sim.schedule_faults(&plan);
    // Stream packets across the failure instant.
    for i in 0..100 {
        sim.agent_mut(s).to_send.push(Packet {
            src: s,
            dst: Dest::Group(gid),
            flow: FlowId(1),
            size: 1500,
            payload: P::Data(i),
        });
    }
    sim.schedule_timer(s, SimTime::ZERO, 0);
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.trees_repaired, 1, "the one group was rebuilt");
    for &r in &receivers {
        // Packets caught inside the old tree at repair time can miss
        // a receiver without a per-receiver loss record (the new
        // tree re-covers them only partially), so the bound is
        // deliberately loose: the repair must restore delivery.
        let got = sim.agent(r).received.len();
        assert!(got >= 90, "repair must restore delivery (got {got})");
        assert!(got <= 100, "no duplicate deliveries (got {got})");
    }
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let (mut sim, src, dst, agg) = fat_tree_sim(SimConfig::ndp(11), NoTelemetry);
        burst(&mut sim, src, dst, 60);
        sim.schedule_faults(&agg_outage(agg));
        sim.run_to_completion();
        let stats = sim.stats();
        let slot = sim.cell_of[dst.0 as usize] as usize;
        let trace = sim.cells[slot].agent.take().unwrap().received;
        (stats, trace)
    };
    let (s1, t1) = run();
    let (s2, t2) = run();
    assert_eq!(s1, s2, "same seed + plan ⇒ identical stats");
    assert_eq!(t1, t2, "same seed + plan ⇒ identical delivery trace");
}

#[test]
fn switch_down_on_host_kills_and_revives_the_host() {
    // Host victims are a behaviour, not a panic: the host's access
    // link goes dark (arrivals lost, queued traffic flushed) and a
    // later SwitchUp brings it back.
    let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
    burst(&mut sim, a, b, 20);
    // Kill the *receiver* host mid-burst, revive near the end.
    let plan = FaultPlan::new()
        .host_down(SimTime::from_micros(100), b)
        .host_up(SimTime::from_micros(400), b);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.reroutes, 2, "down + up each reroute");
    assert!(
        stats.lost_to_fault > 0,
        "mid-burst host death must cost packets"
    );
    let got = sim.agent(b).received.len();
    assert!(got < 20, "the dead window's packets are gone");
    // After the repair the host receives again.
    sim.agent_mut(a).to_send.push(data_pkt(a, b, 99));
    sim.schedule_timer(a, SimTime::from_micros(500), 0);
    sim.run_to_completion();
    assert!(sim.agent(b).received.iter().any(|(_, p)| *p == P::Data(99)));
}

#[test]
fn switch_and_host_victims_account_identically() {
    // The same FaultAction handles both victim kinds: killing the
    // sender host parks its NIC (packets flushed once, then queued
    // unsent), killing the switch flushes the fabric — both surface
    // as lost_to_fault, never as silent strands.
    let run = |kill_host: bool| {
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(2));
        burst(&mut sim, a, b, 10);
        let victim = if kill_host { a } else { NodeId(1) };
        let plan = FaultPlan::new().switch_down(SimTime::from_micros(30), victim);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        (sim.stats(), sim.agent(b).received.len())
    };
    let (host_stats, host_got) = run(true);
    let (switch_stats, switch_got) = run(false);
    assert!(host_stats.lost_to_fault > 0 && switch_stats.lost_to_fault > 0);
    assert!(host_got < 10, "host death cut the stream");
    assert!(switch_got < 10, "switch death cut the stream");
    assert_eq!(host_stats.reroutes, 1);
    assert_eq!(switch_stats.reroutes, 1);
}

#[test]
fn flap_inside_convergence_window_coalesces_to_noop() {
    // A link that goes down and comes back before the deferred
    // reroute fires must cost zero full recomputes: the pair cancels
    // out of the pending delta and the reroute is a no-op repair.
    let mut cfg = SimConfig::ndp(21);
    cfg.reroute_delay_ns = 200_000;
    let (mut sim, src, dst, _) = fat_tree_sim(cfg, NoTelemetry);
    let (edge, up) = uplink(sim.topology(), src);
    burst(&mut sim, src, dst, 40);
    // Down at 100 µs, up at 150 µs — inside the 200 µs window.
    let plan = FaultPlan::new()
        .link_down(SimTime::from_micros(100), edge, up)
        .link_up(SimTime::from_micros(150), edge, up);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.flaps_coalesced, 1, "the pair coalesced");
    assert_eq!(stats.reroutes, 1, "one deferred reroute fired");
    assert_eq!(
        stats.reroutes_incremental, 1,
        "the no-op delta must never fall back to a full recompute"
    );
    assert_eq!(stats.route_dests_rebuilt, 0, "nothing to rebuild");
    let got = sim.agent(dst).received.len();
    assert_eq!(
        got as u64 + stats.lost_to_fault,
        40,
        "flap losses stay accounted"
    );
    assert!(got > 0, "traffic resumes over the restored link");
}

#[test]
fn restoration_after_convergence_repairs_incrementally() {
    // Down and up in *separate* convergence windows: the up-reroute
    // carries a restoration delta, which must be healed by restore
    // surgery, not a full recompute.
    let (mut sim, src, dst, agg) = fat_tree_sim(SimConfig::ndp(23), NoTelemetry);
    burst(&mut sim, src, dst, 60);
    sim.schedule_faults(&agg_outage(agg));
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.reroutes, 2);
    assert_eq!(stats.flaps_coalesced, 0, "windows were separate");
    assert_eq!(
        stats.restores_incremental, 1,
        "the restoration reroute must use restore surgery"
    );
    assert_eq!(stats.reroutes_incremental, 2, "both reroutes incremental");
}

#[test]
fn layered_policy_spreads_flows_and_counts_per_layer() {
    // Many distinct flows on a 4-layer fat-tree: the flow hash must
    // land traffic on several layers, and the per-layer utilisation
    // counters must account every switch-forwarded unicast packet.
    let t = Topology::fat_tree(
        4,
        1_000_000_000,
        10_000,
        crate::topology::RoutingPolicy::layered(4, 5),
    );
    let hosts = t.hosts().to_vec();
    let mut sim = echo_sim(t, SimConfig::ndp(5), NoTelemetry);
    let (src, dst) = (hosts[0], hosts[15]);
    for i in 0..64 {
        let mut pkt = data_pkt(src, dst, i);
        pkt.flow = FlowId(u64::from(i)); // one flow per packet
        sim.agent_mut(src).to_send.push(pkt);
    }
    sim.schedule_timer(src, SimTime::ZERO, 0);
    sim.run_to_completion();
    assert_eq!(sim.agent(dst).received.len(), 64);
    let stats = sim.stats();
    assert_eq!(stats.layer_reassignments, 0, "healthy fabric: no moves");
    let used = stats.layer_forwarded.iter().filter(|&&c| c > 0).count();
    assert!(used >= 2, "64 flows must spread over >= 2 of 4 layers");
    assert_eq!(
        stats.layer_forwarded[4..].iter().sum::<u64>(),
        0,
        "slots past the layer count stay empty"
    );
}

#[test]
fn dead_layer_reassigns_flows_mid_window() {
    // Diamond fabric a—sA—{s1|s2}—sB—b under a 2-layer policy. Find
    // a policy seed whose layer 1 advertises the s1 branch as sA's
    // only port towards b, and a flow hashed onto layer 1; killing
    // the sA—s1 link mid-stream with a long convergence window must
    // then re-assign the flow onto the live layer at sA instead of
    // blackholing it until the deferred reroute.
    let build = |seed: u64| -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::with_policy(RoutingPolicy::layered(2, seed));
        let a = t.add_node(NodeKind::Host);
        let sa = t.add_node(NodeKind::Switch);
        let s1 = t.add_node(NodeKind::Switch);
        let s2 = t.add_node(NodeKind::Switch);
        let sb = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, sa, 1_000_000_000, 10_000);
        t.connect(sa, s1, 1_000_000_000, 10_000); // sa port 1
        t.connect(sa, s2, 1_000_000_000, 10_000); // sa port 2
        t.connect(s1, sb, 1_000_000_000, 10_000);
        t.connect(s2, sb, 1_000_000_000, 10_000);
        t.connect(sb, b, 1_000_000_000, 10_000);
        t.compute_routes();
        (t, a, sa, b)
    };
    let seed = (0..64)
        .find(|&s| {
            let (t, _, sa, b) = build(s);
            t.try_next_ports_on(1, sa, b).to_vec() == [1u16]
        })
        .expect("some seed prefers the s1 branch on layer 1");
    let (t, a, sa, b) = build(seed);
    let flow = (0..64)
        .map(FlowId)
        .find(|&f| layer_choice(f, 2) == 1)
        .expect("some flow hashes onto layer 1");
    let mut cfg = SimConfig::ndp(3);
    cfg.reroute_delay_ns = 500_000; // long stale-routing window
    let mut sim = echo_sim(t, cfg, NoTelemetry);
    for i in 0..30 {
        let mut pkt = data_pkt(a, b, i);
        pkt.flow = flow;
        sim.agent_mut(a).to_send.push(pkt);
    }
    sim.schedule_timer(a, SimTime::ZERO, 0);
    // The NIC drains one packet per 12 µs; kill the s1 branch at
    // 100 µs with most of the stream still to come.
    let plan = FaultPlan::new().link_down(SimTime::from_micros(100), sa, 1);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    let stats = sim.stats();
    // One move per (switch, flow, destination) per fault era: the
    // memo remembers it, so the rest of the stream follows it.
    assert_eq!(
        stats.layer_reassignments, 1,
        "the dead layer must shed its flow, once"
    );
    // Without re-assignment the flow would blackhole at sA for the
    // whole 500 µs window (its layer advertises only the dead
    // port); with it, packets keep arriving mid-window over the
    // live layer. (The live layer still sprays across its own
    // port set — stale-window losses on the dead port remain, as
    // for any flow, so not every packet survives.)
    let rec = &sim.agent(b).received;
    let post_fault = rec
        .iter()
        .filter(|(at, _)| *at > SimTime::from_micros(100))
        .count();
    assert!(
        post_fault >= 5,
        "re-assigned flow must keep delivering mid-window (got {post_fault})"
    );
    assert_eq!(
        rec.len() as u64 + stats.lost_to_fault,
        30,
        "every packet arrives or is accounted as a fault loss"
    );
}

#[test]
fn poisson_fault_process_is_deterministic_and_mixed() {
    use crate::fault::{FaultMix, FaultProcess};
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let proc = FaultProcess::poisson(1000.0, FaultMix::uniform(), Some(2_000_000)).seed(7);
    let a = proc.compile(&t, SimTime::from_micros(100), 24);
    let b = proc.compile(&t, SimTime::from_micros(100), 24);
    assert_eq!(a, b, "same seed ⇒ identical plan");
    let c = proc.seed(8).compile(&t, SimTime::from_micros(100), 24);
    assert_ne!(a, c, "different seed ⇒ different plan");
    // Every down has a scripted repair, times are non-decreasing
    // per element class, and the mix covers hosts.
    let downs = a
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                FaultAction::LinkDown { .. } | FaultAction::SwitchDown { .. }
            )
        })
        .count();
    let ups = a.events().len() - downs;
    assert_eq!(downs, 24, "one down per drawn event");
    assert_eq!(ups, downs, "every failure is repaired");
    let host_failures = a.host_failures(&t);
    assert!(
        !host_failures.is_empty(),
        "uniform mix over 24 events should draw a host"
    );
    assert!(host_failures.iter().all(|f| f.repaired_at.is_some()));
}

/// The fat-tree fault scenario of `switch_failure_reroutes_and_
/// drops_in_flight`, with a recorder installed: annotations carry
/// the fault and reroute story, buckets tile the run exactly, and
/// their deltas sum to the end-of-run aggregates.
#[test]
fn recorder_annotates_faults_and_buckets_sum_to_totals() {
    let rec = Recorder::new(TelemetryConfig {
        window_ns: 50_000, // 50 µs windows over a ~500 µs run
    });
    let (mut sim, src, dst, agg) = fat_tree_sim(SimConfig::ndp(9), Some(rec));
    burst(&mut sim, src, dst, 40);
    let plan = FaultPlan::new()
        .switch_down(SimTime::from_micros(100), agg)
        .switch_up(SimTime::from_micros(400), agg);
    sim.schedule_faults(&plan);
    sim.run_to_completion();
    sim.finish_telemetry();
    let stats = sim.stats();
    let rec = sim.telemetry_mut().take().expect("recorder installed");

    let ann = rec.annotations();
    assert!(ann
        .iter()
        .any(|a| a.event == FabricEvent::NodeDown { node: agg.0 }
            && a.at == SimTime::from_micros(100)));
    assert!(ann
        .iter()
        .any(|a| a.event == FabricEvent::NodeUp { node: agg.0 }));
    assert_eq!(
        ann.iter()
            .filter(|a| matches!(a.event, FabricEvent::Reroute { .. }))
            .count(),
        2,
        "down + up each recompute routes"
    );
    // The fabric itself flags no anomaly: only workloads note them.
    assert!(!ann
        .iter()
        .any(|a| matches!(a.event, FabricEvent::Anomaly(_))));

    let b = rec.buckets();
    assert!(!b.is_empty());
    for w in b.windows(2) {
        assert_eq!(w[0].end, w[1].start, "buckets tile the run");
    }
    assert_eq!(b[0].start, SimTime::ZERO);
    let delivered: u64 = b.iter().map(|x| x.delivered).sum();
    let lost: u64 = b.iter().map(|x| x.lost_to_fault).sum();
    assert_eq!(delivered, stats.delivered, "bucket deltas sum to totals");
    assert_eq!(lost, stats.lost_to_fault);
    // Switch ports carried the stream: buckets hold sparse per-port
    // samples with transmit activity.
    assert!(b
        .iter()
        .any(|x| x.ports.iter().any(|p| p.tx_bytes > 0 && p.enqueued > 0)));
}

/// Enabling the recorder must not perturb the run: same seed, same
/// received payload sequence, same FabricStats — telemetry reads
/// the simulation, never shapes it.
#[test]
fn recorder_on_is_byte_identical_to_off() {
    fn drive<T: TelemetrySink + Send + Sync>(
        (mut sim, src, dst, agg): (Simulator<P, Echo, T>, NodeId, NodeId, NodeId),
    ) -> (Vec<(SimTime, P)>, FabricStats) {
        burst(&mut sim, src, dst, 40);
        let plan = FaultPlan::new()
            .switch_down(SimTime::from_micros(100), agg)
            .switch_up(SimTime::from_micros(400), agg);
        sim.schedule_faults(&plan);
        sim.run_to_completion();
        let received = sim.agent(dst).received.clone();
        (received, sim.stats())
    }
    let off = fat_tree_sim(SimConfig::ndp(9), None::<Recorder>);
    let on = fat_tree_sim(
        SimConfig::ndp(9),
        Some(Recorder::new(TelemetryConfig::default())),
    );
    let baseline = fat_tree_sim(SimConfig::ndp(9), NoTelemetry);
    let a = drive(off);
    let b = drive(on);
    let c = drive(baseline);
    assert_eq!(a, b, "recorder on vs off: identical trace and stats");
    assert_eq!(a, c, "Option sink vs compiled-out sink: identical");
}

/// A noted anomaly is an annotation at the simulator's current
/// instant, in order with the fabric events around it: the log before
/// it is its history.
#[test]
fn note_anomaly_annotates_in_order_with_the_fabric_events() {
    let rec = Recorder::new(TelemetryConfig {
        window_ns: 1_000_000,
    });
    let t = {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        t
    };
    let mut sim: Simulator<P, Echo, Option<Recorder>> =
        Simulator::with_telemetry(t, SimConfig::ndp(1), Some(rec));
    let plan = FaultPlan::new()
        .link_down(SimTime::from_micros(10), NodeId(0), 0)
        .link_up(SimTime::from_micros(20), NodeId(0), 0);
    sim.schedule_faults(&plan);
    sim.run_until(SimTime::from_micros(15));
    sim.note_anomaly(AnomalyKind::StrandedSession);
    sim.run_to_completion();
    sim.note_anomaly(AnomalyKind::Timeout);
    let rec = sim.telemetry_mut().take().unwrap();
    let log = rec.annotations();
    let events: Vec<FabricEvent> = log.iter().map(|a| a.event).collect();
    assert!(
        matches!(
            events[..],
            [
                FabricEvent::LinkDown { .. },
                FabricEvent::Reroute { .. },
                FabricEvent::Anomaly(AnomalyKind::StrandedSession),
                FabricEvent::LinkUp { .. },
                FabricEvent::Reroute { .. },
                FabricEvent::Anomaly(AnomalyKind::Timeout),
            ]
        ),
        "{events:?}"
    );
}
