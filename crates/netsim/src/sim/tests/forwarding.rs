// Forwarding: latency, pipelining, trimming and drops, control
// priority, multicast, spraying and ECMP, the port release at tied
// instants, kicks and flushes, and the routed-topology check.

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

/// A simulator starts only on routes computed for the healthy fabric:
/// a topology never routed, and one routed around a failed access link
/// (its packets would meet a hole no fault of the run cut), are both
/// refused before a packet is sent.
#[test]
fn simulator_refuses_a_topology_not_routed_for_the_healthy_fabric() {
    let (mut masked, hosts, _) = fat_tree();
    let (src, victim) = (hosts[0], hosts[15]);
    let mut mask = FaultMask::new();
    mask.fail_link(&masked, victim, 0);
    masked.compute_routes_masked(&mask);
    let unrouted = (Topology::new(), "simulator needs a routed topology");
    let healthy = "simulator needs routes computed for the healthy fabric";
    for (topo, expected) in [unrouted, (masked, healthy)] {
        let refused = std::panic::catch_unwind(|| {
            let mut sim = echo_sim(topo, SimConfig::ndp(1), NoTelemetry);
            burst(&mut sim, src, victim, 3);
            sim.run_to_completion();
        })
        .expect_err("the simulator must refuse these routes");
        let msg = refused.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, expected);
    }
}
