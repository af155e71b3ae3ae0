// The event loop and its shards: the order-independent event key, the
// queue entry's size, a sharded run against the serial one through
// faults, run slices and timers.

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

/// On timer `token`, sends 20 packets to host `token`.
struct Courier;

impl Agent<P> for Courier {
    fn on_packet(&mut self, _: Packet<P>, _: &mut Ctx<P>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<P>) {
        for i in 0..20 {
            ctx.send(data_pkt(ctx.node, NodeId(token as u32), i));
        }
    }
}

/// The schedule digest sees events move where no counter does. A
/// courier's timer token names the host its burst goes to, and two
/// hosts behind one edge switch are the same hops away. Sending to the
/// other one (a different token), or firing two same-instant timers
/// in the other order, leaves every packet fate and the event count as
/// they were, and changes the digest — which is the same at 1, 2 and 4
/// shards.
#[test]
fn schedule_digest_sees_what_counters_miss_at_every_shard_count() {
    let (t, hosts, _) = fat_tree();
    let (a, b) = (hosts[14], hosts[15]);
    assert_eq!(t.edge_switch(a), t.edge_switch(b));
    let run = |tokens: &[NodeId], shards: usize| {
        let mut cfg = SimConfig::ndp(9);
        cfg.shards = shards;
        let mut sim = Simulator::new(t.clone(), cfg);
        for &h in &hosts {
            sim.set_agent(h, Courier);
        }
        for &to in tokens {
            sim.schedule_timer(hosts[0], SimTime::ZERO, u64::from(to.0));
        }
        sim.run_to_completion();
        sim.stats()
    };
    let stats: Vec<FabricStats> = [vec![a], vec![b], vec![a, b], vec![b, a]]
        .iter()
        .map(|tokens| {
            let one = run(tokens, 1);
            for shards in [2, 4] {
                assert_eq!(
                    run(tokens, shards).shard_invariant(),
                    one.shard_invariant(),
                    "timers {tokens:?} at {shards} shards"
                );
            }
            one
        })
        .collect();
    let counted = |s: &FabricStats| (s.delivered, s.dropped, s.trimmed, s.events);
    for (x, y, what) in [(0, 1, "token"), (2, 3, "timer order")] {
        assert_eq!(counted(&stats[x]), counted(&stats[y]), "{what}: counters");
        assert_ne!(
            stats[x].schedule_digest, stats[y].schedule_digest,
            "{what}: digest"
        );
    }
    assert_eq!(stats[0].delivered, 20);
}
