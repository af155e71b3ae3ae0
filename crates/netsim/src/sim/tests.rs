use super::*;
use crate::fixtures::*;
use crate::packet::{Dest, FlowId};
use crate::telemetry::{Recorder, TelemetryConfig};

/// Queue statistics of one port.
fn queue_stats(sim: &Simulator<P, Echo>, node: NodeId, port: u16) -> QueueStats {
    sim.cell(node).queues[port as usize].stats()
}

/// `host`'s edge switch and its first uplink port.
fn uplink(t: &Topology, host: NodeId) -> (NodeId, u16) {
    let edge = t.edge_switch(host);
    let up = t
        .node_ports(edge)
        .iter()
        .position(|p| t.kind(p.peer) == NodeKind::Switch);
    (edge, up.expect("edge has uplinks") as u16)
}

#[test]
fn single_packet_latency_exact() {
    let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
    sim.agent_mut(a).to_send.push(data_pkt(a, b, 0));
    sim.schedule_timer(a, SimTime::ZERO, 0);
    sim.run_to_completion();
    let rec = &sim.agent(b).received;
    assert_eq!(rec.len(), 1);
    // Two store-and-forward hops: 2 × (12µs ser + 10µs prop).
    assert_eq!(rec[0].0, SimTime::from_nanos(2 * (12_000 + 10_000)));
}

#[test]
fn fifo_pipelining() {
    let (mut sim, a, b) = two_host_sim(SimConfig::ndp(1));
    burst(&mut sim, a, b, 3);
    sim.run_to_completion();
    let rec = &sim.agent(b).received;
    assert_eq!(rec.len(), 3);
    // In order, spaced by one serialization delay.
    assert_eq!(rec[0].1, P::Data(0));
    assert_eq!(rec[1].0 - rec[0].0, 12_000);
    assert_eq!(rec[2].0 - rec[1].0, 12_000);
}

#[test]
fn trimming_under_burst() {
    // Two hosts blast 20 packets each into a shared receiver port
    // (2:1 overload): the 8-packet NDP data queue must overflow and
    // the overflow must be trimmed, never dropped.
    let (mut sim, a, c, b) = incast_sim(SimConfig::ndp(1));
    for i in 0..20 {
        sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
        sim.agent_mut(c).to_send.push(data_pkt(c, b, 100 + i));
    }
    sim.schedule_timer(a, SimTime::ZERO, 0);
    sim.schedule_timer(c, SimTime::ZERO, 0);
    sim.run_to_completion();
    let rec = &sim.agent(b).received;
    assert_eq!(rec.len(), 40, "every packet arrives, full or trimmed");
    let full = rec.iter().filter(|(_, p)| matches!(p, P::Data(_))).count();
    let trimmed = rec.iter().filter(|(_, p)| matches!(p, P::Hdr(_))).count();
    assert_eq!(full + trimmed, 40);
    assert!(
        trimmed > 0,
        "2:1 overload must overflow the 8-packet data queue"
    );
    assert_eq!(sim.stats().trimmed as usize, trimmed);
    assert_eq!(sim.stats().dropped, 0);
    assert_eq!(sim.switch_queue_totals().trimmed as usize, trimmed);
}

#[test]
fn droptail_drops_under_burst() {
    let mut cfg = SimConfig::classic(1);
    cfg.switch_queue = QueueConfig::DropTail { cap_pkts: 4 };
    let (mut sim, a, c, b) = incast_sim(cfg);
    for i in 0..20 {
        sim.agent_mut(a).to_send.push(data_pkt(a, b, i));
        sim.agent_mut(c).to_send.push(data_pkt(c, b, 100 + i));
    }
    sim.schedule_timer(a, SimTime::ZERO, 0);
    sim.schedule_timer(c, SimTime::ZERO, 0);
    sim.run_to_completion();
    let rec = &sim.agent(b).received;
    assert!(rec.len() < 40, "drop-tail must lose packets");
    assert!(sim.stats().dropped > 0);
}

#[test]
fn control_overtakes_data() {
    // Host C backlogs the receiver port with data; a pull from host A
    // sent later must overtake queued data thanks to the priority
    // header queue.
    let (mut sim, a, c, b) = incast_sim(SimConfig::ndp(1));
    for i in 0..10 {
        sim.agent_mut(c).to_send.push(data_pkt(c, b, i));
    }
    sim.agent_mut(a).to_send.push(Packet {
        src: a,
        dst: Dest::Host(b),
        flow: FlowId(9),
        size: 64,
        payload: P::Pull,
    });
    sim.schedule_timer(c, SimTime::ZERO, 0);
    // Give C a head start so the switch queue is backlogged when the
    // pull arrives.
    sim.schedule_timer(a, SimTime::from_micros(40), 0);
    sim.run_to_completion();
    let rec = &sim.agent(b).received;
    let pull_pos = rec.iter().position(|(_, p)| *p == P::Pull).unwrap();
    assert!(
        pull_pos < rec.len() - 1,
        "pull should overtake queued data at the switch"
    );
}

#[test]
fn multicast_delivers_to_all() {
    // One sender, three receivers on a k=4 fat-tree.
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = t.hosts().to_vec();
    let mut sim = echo_sim(t, SimConfig::ndp(3), NoTelemetry);
    let (s, r1, r2, r3) = (hosts[0], hosts[3], hosts[7], hosts[12]);
    let gid = sim.register_group(s, &[r1, r2, r3]);
    sim.agent_mut(s).to_send.push(Packet {
        src: s,
        dst: Dest::Group(gid),
        flow: FlowId(1),
        size: 1500,
        payload: P::Data(0),
    });
    sim.schedule_timer(s, SimTime::ZERO, 0);
    sim.run_to_completion();
    for &r in &[r1, r2, r3] {
        assert_eq!(sim.agent(r).received.len(), 1, "receiver {} missed", r.0);
    }
    // Non-members received nothing.
    assert_eq!(sim.agent(hosts[1]).received.len(), 0);
}

#[test]
fn multicast_tree_shares_sender_uplink() {
    // The whole point of multicast in Fig 1a: one copy leaves the
    // sender regardless of replica count.
    let t = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    let hosts = t.hosts().to_vec();
    let mut sim = echo_sim(t, SimConfig::ndp(3), NoTelemetry);
    let s = hosts[0];
    let receivers = [hosts[5], hosts[9], hosts[13]];
    let gid = sim.register_group(s, &receivers);
    for i in 0..50 {
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
    // Sender's NIC transmitted each packet exactly once.
    let nic = queue_stats(&sim, s, 0);
    assert_eq!(nic.tx_bytes, 50 * 1500);
    for &r in &receivers {
        assert_eq!(sim.agent(r).received.len(), 50);
    }
}

#[test]
fn spray_uses_multiple_paths() {
    let (mut sim, src, dst, _) = fat_tree_sim(SimConfig::ndp(5), NoTelemetry);
    let edge = sim.topology().edge_switch(src);
    let up_ports = sim.topology().next_ports(edge, dst).to_vec(); // inter-pod
    assert_eq!(up_ports.len(), 2);
    burst(&mut sim, src, dst, 100);
    sim.run_to_completion();
    let tx0 = queue_stats(&sim, edge, up_ports[0]).tx_bytes;
    let tx1 = queue_stats(&sim, edge, up_ports[1]).tx_bytes;
    assert!(
        tx0 > 0 && tx1 > 0,
        "spraying must use both uplinks ({tx0}, {tx1})"
    );
}

#[test]
fn ecmp_pins_one_path() {
    let (mut sim, src, dst, _) = fat_tree_sim(SimConfig::classic(5), NoTelemetry);
    let edge = sim.topology().edge_switch(src);
    let up_ports = sim.topology().next_ports(edge, dst).to_vec();
    burst(&mut sim, src, dst, 100);
    sim.run_to_completion();
    let tx0 = queue_stats(&sim, edge, up_ports[0]).tx_bytes;
    let tx1 = queue_stats(&sim, edge, up_ports[1]).tx_bytes;
    assert!(
        (tx0 == 0) != (tx1 == 0),
        "per-flow ECMP must pin exactly one uplink ({tx0}, {tx1})"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| -> Vec<(SimTime, P)> {
        let (mut sim, a, b) = two_host_sim(SimConfig::ndp(seed));
        burst(&mut sim, a, b, 30);
        sim.run_to_completion();
        let slot = sim.cell_of[b.0 as usize] as usize;
        sim.cells[slot].agent.take().unwrap().received
    };
    assert_eq!(run(42), run(42), "same seed ⇒ identical trace");
}

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
        let mut t = Topology::new();
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
        t.set_policy(crate::topology::RoutingPolicy::layered(2, seed));
        t.compute_routes();
        (t, a, sa, b)
    };
    let seed = (0..64)
        .find(|&s| {
            let (t, _, sa, b) = build(s);
            t.try_next_ports_on(1, sa, b) == [1u16]
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
    assert!(
        stats.layer_reassignments >= 1,
        "the dead layer must shed its flow"
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

/// The `(time, rank, seq)` key is a total order independent of push
/// order: any insertion order pops the same sequence, global
/// (rank 0) events win ties against node events at the same
/// instant, and a node's own counter breaks its internal ties.
#[test]
fn event_key_is_total_and_push_order_independent() {
    let mk = |at: u64, rank: u32, seq: u64| Ev {
        at: SimTime::from_nanos(at),
        rank,
        seq,
        kind: (),
    };
    // Deliberate ties in time (100) and in (time, rank) (rank 3).
    let keys = [
        (100u64, 0u32, 0u64), // global beats every node event at t=100
        (100, 1, 5),
        (100, 3, 1),
        (100, 3, 2), // same node: counter order
        (100, 7, 0),
        (200, 0, 1),
        (200, 2, 9),
    ];
    let pop_all = |order: &[usize]| -> Vec<(SimTime, u32, u64)> {
        let mut queue = EventQueue::default();
        for &i in order {
            let (at, rank, seq) = keys[i];
            queue.push(mk(at, rank, seq));
        }
        std::iter::from_fn(|| queue.pop_before(u64::MAX))
            .map(|ev| ev.key())
            .collect()
    };
    let forward = pop_all(&[0, 1, 2, 3, 4, 5, 6]);
    let shuffled = pop_all(&[6, 3, 0, 5, 2, 4, 1]);
    assert_eq!(forward, shuffled, "push order must not matter");
    let mut sorted: Vec<_> = keys
        .iter()
        .map(|&(at, r, s)| (SimTime::from_nanos(at), r, s))
        .collect();
    sorted.sort();
    assert_eq!(forward, sorted, "pop order is exactly key order");
    // Global rank sorts first at its instant.
    assert_eq!(forward[0], (SimTime::from_nanos(100), GLOBAL_RANK, 0));
}

/// `Arrive` boxes its packet, so a queue entry is the 20-byte key
/// plus a small kind — every bucket push, sort and swap moves a
/// fixed few words no matter how fat the payload type is. Pin the
/// bound so a future inline variant can't silently quadruple the
/// queue's memory traffic.
#[test]
fn heap_event_stays_small_with_boxed_payload() {
    assert!(
        std::mem::size_of::<Ev<NodeEvent<P>>>() <= 48,
        "queue event grew to {} bytes — keep large payload variants boxed",
        std::mem::size_of::<Ev<NodeEvent<P>>>()
    );
    // And the bound is payload-independent: a deliberately fat
    // payload must not widen the event.
    #[derive(Debug, Clone)]
    struct Fat(#[allow(dead_code)] [u64; 32]);
    impl SimPayload for Fat {
        fn is_control(&self) -> bool {
            false
        }
        fn trim(&self) -> Option<Self> {
            None
        }
    }
    assert_eq!(
        std::mem::size_of::<Ev<NodeEvent<Fat>>>(),
        std::mem::size_of::<Ev<NodeEvent<P>>>(),
        "payload size must not leak into the queue entry"
    );
}

/// The event loop at any shard count reproduces the one-shard run
/// byte for byte, through a mid-stream switch failure and repair —
/// same delivery trace (payloads and timestamps), same stats up to
/// the shard-machinery counters.
#[test]
fn sharded_run_matches_serial_through_faults() {
    let run = |shards: usize| {
        let mut cfg = SimConfig::ndp(9);
        cfg.shards = shards;
        cfg.reroute_delay_ns = 50_000;
        let (mut sim, src, dst, agg) = fat_tree_sim(cfg, NoTelemetry);
        burst(&mut sim, src, dst, 60);
        sim.schedule_faults(&agg_outage(agg));
        sim.run_to_completion();
        let raw = sim.stats();
        let slot = sim.cell_of[dst.0 as usize] as usize;
        let trace = sim.cells[slot].agent.take().unwrap().received;
        (raw, trace)
    };
    let (serial_stats, serial_trace) = run(1);
    assert_eq!(serial_stats.shard_epochs, 0);
    for shards in [2usize, 4] {
        let (stats, trace) = run(shards);
        assert!(
            stats.shard_epochs > 0,
            "shards={shards} must actually run sharded"
        );
        assert_eq!(
            serial_stats.shard_invariant(),
            stats.shard_invariant(),
            "shards={shards}: stats diverged"
        );
        assert_eq!(serial_trace, trace, "shards={shards}: trace diverged");
    }
}

/// Have `from` send `ids` back to back to `to` at `at_us`.
fn send_at(sim: &mut Simulator<P, Echo>, at_us: u64, from: NodeId, to: NodeId, ids: &[u32]) {
    sim.run_until(SimTime::from_nanos((at_us * 1_000).saturating_sub(1)));
    for &i in ids {
        sim.agent_mut(from).to_send.push(data_pkt(from, to, i));
    }
    sim.schedule_timer(from, SimTime::from_micros(at_us), 0);
}

fn arrival_us(sim: &Simulator<P, Echo>, host: NodeId) -> Vec<u64> {
    sim.agent(host)
        .received
        .iter()
        .map(|(at, _)| {
            assert_eq!(at.as_nanos() % 1_000, 0);
            at.as_nanos() / 1_000
        })
        .collect()
}

/// The second of two back-to-back packets reaches the switch at
/// exactly the instant its port to b frees. From a lower-ranked
/// sender the arrival sorts before the release, queues behind the
/// wire and makes the release an event; from a higher-ranked one
/// the release is already past and never exists. Either way the
/// packet leaves at that instant.
#[test]
fn arrival_at_the_release_instant_queues_or_transmits_by_rank() {
    for (below, events) in [(true, 7), (false, 6)] {
        let (mut sim, x, _, b) = ranked_sim(below, 1_000_000_000, SimConfig::ndp(1));
        sim.agent_mut(x).to_send = vec![data_pkt(x, b, 0), data_pkt(x, b, 1)];
        sim.schedule_timer(x, SimTime::ZERO, 0);
        sim.run_to_completion();
        assert_eq!(arrival_us(&sim, b), [44, 56], "below = {below}");
        // The timer, the NIC's release for the second packet, two
        // arrivals at each end — and the switch's release iff the
        // arrival beat it.
        assert_eq!(sim.stats().events, events, "below = {below}");
    }
}

/// The same tie with the NDP data queue full: behind the wire the
/// ninth waiting packet is trimmed; after the release (which took
/// one off the queue) it fits.
#[test]
fn arrival_at_the_release_instant_with_a_full_queue_trims_by_rank() {
    for (below, trimmed) in [(true, 1), (false, 0)] {
        // 100 Mbps to b: packet 0 holds the wire from 22 to 142 µs
        // while 1..=8 arrive every 12 µs and fill the data queue.
        let (mut sim, x, _, b) = ranked_sim(below, 100_000_000, SimConfig::ndp(1));
        send_at(&mut sim, 0, x, b, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // Sent at 120 µs: 12 µs on the NIC, 10 µs on the wire.
        send_at(&mut sim, 120, x, b, &[9]);
        sim.run_to_completion();
        assert_eq!(sim.stats().trimmed, trimmed, "below = {below}");
        let rec = &sim.agent(b).received;
        assert_eq!(rec.len(), 10);
        assert_eq!(
            rec.iter().filter(|(_, p)| *p == P::Hdr(9)).count() as u64,
            trimmed
        );
    }
}

/// A global kick at exactly the release instant sorts before the
/// release (rank 0) and finds it armed: it changes nothing.
#[test]
fn global_kick_at_the_release_instant_is_a_no_op() {
    let run = |kick: bool| {
        let (mut sim, x, s, b) = ranked_sim(true, 100_000_000, SimConfig::ndp(1));
        sim.agent_mut(x).to_send = (0..4).map(|i| data_pkt(x, b, i)).collect();
        sim.schedule_timer(x, SimTime::ZERO, 0);
        if kick {
            // Packet 0 frees the port at 142 µs with 1..=3 waiting;
            // a rate "change" to the nominal rate is a bare kick.
            let plan = FaultPlan::new().rate_change(SimTime::from_micros(142), s, 1, 100_000_000);
            sim.schedule_faults(&plan);
        }
        sim.run_to_completion();
        (arrival_us(&sim, b), sim.stats().events)
    };
    let (plain, plain_events) = run(false);
    let (kicked, kicked_events) = run(true);
    assert_eq!(plain, [152, 272, 392, 512]);
    assert_eq!(kicked, plain);
    assert_eq!(kicked_events, plain_events + 1, "the fault event itself");
}

/// A port kicked twice at one instant — a link repair plus the
/// repair of its endpoint, two rate changes, two `set_link_rate`
/// calls — restarts once: the parked packets leave one
/// serialization time apart, never two on the wire at once.
#[test]
fn two_kicks_at_one_instant_restart_the_port_once() {
    let park = |config: SimConfig, plan: FaultPlan| {
        let (mut sim, x, s, b) = ranked_sim(true, 1_000_000_000, config);
        sim.schedule_faults(&plan);
        sim.agent_mut(x).to_send = (0..3).map(|i| data_pkt(x, b, i)).collect();
        sim.schedule_timer(x, SimTime::ZERO, 0);
        (sim, s, b)
    };
    let us = SimTime::from_micros;
    let mut stale = SimConfig::ndp(1);
    stale.reroute_delay_ns = 1_000_000;

    // Stale routes park the burst behind the dead link to b; the
    // link and b itself are repaired at the same instant.
    let plan = FaultPlan::new()
        .link_down(us(5), NodeId(1), 1)
        .link_up(us(100), NodeId(1), 1)
        .host_up(us(100), NodeId(2));
    let (mut sim, _, b) = park(stale, plan);
    sim.run_to_completion();
    assert_eq!(arrival_us(&sim, b), [122, 134, 146], "link + endpoint");

    // A silent rate-0 black hole, lifted by two rate changes.
    let plan = FaultPlan::new()
        .rate_change(us(5), NodeId(1), 1, 0)
        .rate_change(us(100), NodeId(1), 1, 1_000_000_000)
        .rate_change(us(100), NodeId(1), 1, 1_000_000_000);
    let (mut sim, _, b) = park(SimConfig::ndp(1), plan);
    sim.run_to_completion();
    assert_eq!(arrival_us(&sim, b), [122, 134, 146], "two rate changes");

    // The same through the scripting entry point, called twice
    // between run slices (the kick lands at the last event, 46 µs).
    let (mut sim, s, b) = park(SimConfig::ndp(1), FaultPlan::new());
    sim.set_link_rate(s, 1, 0);
    sim.run_until(us(100));
    sim.set_link_rate(s, 1, 1_000_000_000);
    sim.set_link_rate(s, 1, 1_000_000_000);
    sim.run_to_completion();
    assert_eq!(arrival_us(&sim, b), [68, 80, 92], "two set_link_rate calls");
}

/// A link that fails, or silently drops to rate 0, while a packet
/// is serializing on an otherwise empty port: the release is not
/// in the queue, yet a packet arriving before the wire would have
/// freed must still wait for it, park when it finds the link dead,
/// and leave at the repair.
#[test]
fn link_loss_mid_serialization_parks_later_arrivals() {
    let us = SimTime::from_micros;
    let mut stale = SimConfig::ndp(1);
    stale.reroute_delay_ns = 1_000_000;
    let silent = FaultPlan::new()
        .rate_change(us(50), NodeId(1), 1, 0)
        .rate_change(us(300), NodeId(1), 1, 100_000_000);
    let detected = FaultPlan::new()
        .link_down(us(50), NodeId(1), 1)
        .link_up(us(300), NodeId(1), 1);
    // Packet 0 holds the 100 Mbps wire from 22 to 142 µs; packet 1
    // reaches the switch at 82 µs, inside that.
    for (config, plan, arrivals, lost) in [
        (SimConfig::ndp(1), silent, vec![152, 430], 0),
        // A detected failure also kills the packet on the wire.
        (stale, detected, vec![430], 1),
    ] {
        let (mut sim, x, _, b) = ranked_sim(true, 100_000_000, config);
        sim.schedule_faults(&plan);
        send_at(&mut sim, 0, x, b, &[0]);
        send_at(&mut sim, 60, x, b, &[1]);
        sim.run_until(us(299));
        assert_eq!(queue_stats(&sim, NodeId(1), 1).tx_bytes, 1500, "parked");
        sim.run_to_completion();
        assert_eq!(arrival_us(&sim, b), arrivals);
        assert_eq!(sim.stats().lost_to_fault, lost);
    }
}

/// A flush empties the queue under an armed release: the release
/// still fires (it is in the queue), finds nothing, and the port is
/// idle again for the traffic that follows the repair.
#[test]
fn flush_under_an_armed_release_leaves_the_port_usable() {
    let us = SimTime::from_micros;
    let (mut sim, x, s, b) = ranked_sim(true, 100_000_000, SimConfig::ndp(1));
    let plan = FaultPlan::new()
        .link_down(us(50), s, 1)
        .link_up(us(160), s, 1);
    sim.schedule_faults(&plan);
    // 0 is on the wire (due at b at 152 µs) and 1, 2 wait behind it
    // when the link dies.
    send_at(&mut sim, 0, x, b, &[0, 1, 2]);
    send_at(&mut sim, 200, x, b, &[3, 4]);
    sim.run_to_completion();
    assert_eq!(sim.stats().lost_to_fault, 3, "one in flight, two flushed");
    assert_eq!(arrival_us(&sim, b), [352, 472]);
    assert_eq!(sim.agent(b).received[0].1, P::Data(3));
}

/// A run cut into slices — the boundary falling inside a calendar
/// slot with an event on either side of it — and a `set_link_rate`
/// kick between two slices (an event pushed at the clock's instant,
/// into the slot the queue is already popping from) deliver exactly
/// what one uninterrupted run with the same kick scripted does.
#[test]
fn sliced_run_and_a_kick_between_slices_match_one_run() {
    let ns = SimTime::from_nanos;
    // b's no-op timers at 46.1 and 46.2 µs share the 256 ns slot
    // 46 080..46 336; a slice ending at 46.15 µs splits it.
    let (first, cut, second) = (46_100, 46_150, 46_200);
    let run = |slices: &[u64], scripted_kick: bool| {
        let (mut sim, x, s, b) = ranked_sim(true, 1_000_000_000, SimConfig::ndp(1));
        // The port to b is a silent black hole until the kick: the
        // burst (at the switch from 22 µs, every 12 µs) parks.
        sim.set_link_rate(s, 1, 0);
        sim.agent_mut(x).to_send = (0..5).map(|i| data_pkt(x, b, i)).collect();
        sim.schedule_timer(x, SimTime::ZERO, 0);
        sim.schedule_timer(b, ns(first), 0);
        sim.schedule_timer(b, ns(second), 0);
        if scripted_kick {
            let plan = FaultPlan::new().rate_change(ns(first), s, 1, 1_000_000_000);
            sim.schedule_faults(&plan);
        }
        for &deadline in slices {
            sim.run_until(ns(deadline));
        }
        if !scripted_kick {
            // Lands at the last executed event, `first`: behind
            // `second`, which the queue has already sorted.
            assert_eq!(sim.now(), ns(first));
            sim.set_link_rate(s, 1, 1_000_000_000);
        }
        sim.run_to_completion();
        sim.agent(b).received.clone()
    };
    let whole = run(&[], true);
    let times: Vec<u64> = whole.iter().map(|(at, _)| at.as_nanos()).collect();
    // Three were parked at the kick; the fourth and fifth (58 and
    // 70 µs at the switch) queue behind them.
    let expect: Vec<u64> = (0..5).map(|i| first + 22_000 + i * 12_000).collect();
    assert_eq!(times, expect);
    assert_eq!(run(&[cut], true), whole, "slice boundary inside a slot");
    assert_eq!(run(&[30_000, cut, 90_000], true), whole, "three slices");
    assert_eq!(run(&[cut], false), whole, "kick between slices");
}

/// A timer dated before the clock would run the simulation
/// backwards; in a release build as much as in a debug one.
#[test]
#[should_panic(expected = "is in the simulator's past")]
fn past_dated_timer_from_the_workload_panics() {
    let (mut sim, a, _) = two_host_sim(SimConfig::ndp(1));
    sim.schedule_timer(a, SimTime::from_micros(10), 0);
    sim.run_to_completion();
    sim.schedule_timer(a, SimTime::from_micros(9), 0);
}

#[test]
#[should_panic(expected = "is in the simulator's past")]
fn past_dated_timer_from_an_agent_panics() {
    let (mut sim, a) = rearm_sim();
    sim.schedule_timer(a, SimTime::from_nanos(5_000), 4_999);
    sim.run_to_completion();
}

/// `at == now` is legal from both entry points, and runs at that
/// instant, after the event that asked for it.
#[test]
fn timer_at_the_current_instant_is_legal() {
    let (mut sim, a) = rearm_sim();
    let t = SimTime::from_nanos(5_000);
    sim.schedule_timer(a, t, 5_000);
    assert_eq!(sim.run_to_completion(), 2);
    assert_eq!(sim.now(), t);
    sim.schedule_timer(a, t, 0);
    assert_eq!(sim.run_to_completion(), 1);
    assert_eq!(sim.agent(a).fired_at, [t, t, t]);
}

/// One packet over an idle six-hop path is a timer and six
/// arrivals: no port it crosses ever has a release queued.
#[test]
fn lone_packet_across_the_fat_tree_is_seven_events() {
    let (mut sim, src, dst, _) = fat_tree_sim(SimConfig::ndp(3), NoTelemetry);
    sim.agent_mut(src).to_send.push(data_pkt(src, dst, 0));
    sim.schedule_timer(src, SimTime::ZERO, 0);
    assert_eq!(sim.run_to_completion(), 7);
    assert_eq!(sim.stats().events, 7);
    assert_eq!(arrival_us(&sim, dst), [6 * 22]);
}

/// A simulator starts only on routes computed under the topology's
/// current policy, so no reroute in its run falls back to a full
/// recomputation: a topology never routed, and one whose policy
/// changed after its routes, are both refused.
#[test]
fn simulator_refuses_a_topology_not_routed_under_its_policy() {
    let mut repoliced = Topology::fat_tree(4, 1_000_000_000, 10_000, RoutingPolicy::minimal());
    repoliced.set_policy(crate::topology::RoutingPolicy::layered(2, 3));
    for topo in [Topology::new(), repoliced] {
        let refused = std::panic::catch_unwind(|| {
            Simulator::<P, Echo>::new(topo, SimConfig::ndp(1));
        })
        .expect_err("the simulator must refuse stale routes");
        let msg = refused.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(
            msg,
            "simulator needs routes computed under the current policy"
        );
    }
}
