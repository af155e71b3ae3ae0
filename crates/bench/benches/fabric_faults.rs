//! Fabric-dynamics benchmarks: the cost of surviving a core-switch
//! failure, the raw cost of a masked route recomputation, and the
//! incremental repair that replaces it after small fault deltas —
//! plus the simulated post-fault recovery tail.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use netsim::{FaultMask, Topology};
use workload::{run_churn_rq, run_fault_rq, ChurnScenario, Fabric, FaultScenario, RqRunOptions};

fn fault_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault/recovery");
    g.sample_size(10);
    // A full Polyraptor fault run on the 16-host fabric: 4 x 128 KB
    // 3-replica writes, busiest core dies mid-transfer, all sessions
    // must complete.
    let sc = FaultScenario::fig1_failure(4, 128 << 10, 11);
    let fabric = Fabric::small();
    // Wall time is criterion's; the *simulated* post-fault tail is the
    // metric batched sweep recovery exists for, so print it alongside.
    let tail = run_fault_rq(&sc, &fabric, &RqRunOptions::default())
        .recovery()
        .expect("faulted run")
        .max_ns;
    println!("fault/recovery: simulated post-fault tail {tail} ns");
    g.throughput(Throughput::Bytes((4 * 3 * (128 << 10)) as u64));
    g.bench_function("core_failure_rq_k4", |b| {
        b.iter(|| run_fault_rq(&sc, &fabric, &RqRunOptions::default()));
    });
    g.finish();
}

/// The churn soak as a benchmark: 6 fetches under a 12-event Poisson
/// fault process (links, flaps, switches, host failures + re-target) on
/// the 16-host fabric. The simulated completion/recovery percentiles
/// are printed alongside the wall time.
fn churn(c: &mut Criterion) {
    let mut sc = ChurnScenario::ten_event(6, 2 << 20, 2);
    sc.fault_events = 12;
    let fabric = Fabric::small();
    let rep = run_churn_rq(&sc, &fabric, &RqRunOptions::default());
    let comp = rep.completion();
    println!(
        "fault/churn: completion p50 {} p99 {} max {} ns; {} stranded / {} re-targeted; \
         {} flaps coalesced",
        comp.p50_ns,
        comp.p99_ns,
        comp.max_ns,
        rep.stranded_sessions,
        rep.retargeted_sessions,
        rep.fabric.flaps_coalesced,
    );
    let mut g = c.benchmark_group("fault/churn");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((6 * (2 << 20)) as u64));
    g.bench_function("poisson_12ev_k4", |b| {
        b.iter(|| run_churn_rq(&sc, &fabric, &RqRunOptions::default()));
    });
    let mut spread = sc;
    spread.shared_risk_placement = true;
    g.bench_function("poisson_12ev_k4_shared_risk", |b| {
        b.iter(|| run_churn_rq(&spread, &fabric, &RqRunOptions::default()));
    });
    g.finish();
}

fn reroute_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault/reroute");
    g.sample_size(10);
    // Masked all-pairs route recomputation on the paper's 250-host
    // fat-tree — what every mid-run fault paid before incremental
    // repair existed, and what mass fault deltas still pay.
    let mut topo = Topology::fat_tree(10, 1_000_000_000, 10_000);
    let core = topo.core_switches()[0];
    let mut mask = FaultMask::new();
    mask.fail_node(core);
    g.bench_function("masked_recompute_k10", |b| {
        b.iter(|| topo.compute_routes_masked(&mask));
    });

    // Incremental repair of the same failures: surgery plus a handful of
    // per-destination rebuilds instead of 250 BFS trees. The pristine
    // topology is cloned outside the timed section (iter_batched), so
    // the comparison against masked_recompute_k10 is repair-work only.
    // Note `core_switches()` returns every host-free switch (aggs too);
    // the true core layer is the last-added (k/2)² nodes.
    let pristine = Topology::fat_tree(10, 1_000_000_000, 10_000);
    let true_core = netsim::NodeId(pristine.node_count() as u32 - 1);
    // Single link failure: one agg–core uplink. The core keeps serving
    // 9 pods but loses its only path into the tenth, so that pod's 25
    // destination trees need a BFS rebuild.
    let mut link_mask = FaultMask::new();
    link_mask.fail_link(&pristine, true_core, 0);
    g.bench_function("repair_single_link_k10", |b| {
        b.iter_batched(
            || pristine.clone(),
            |mut t| t.repair_routes(&link_mask),
            BatchSize::LargeInput,
        );
    });
    // Whole core-switch failure (pure surgery on a fat-tree: every
    // agg keeps an equal-cost sibling core, no BFS at all).
    let mut switch_mask = FaultMask::new();
    switch_mask.fail_node(true_core);
    g.bench_function("repair_switch_down_k10", |b| {
        b.iter_batched(
            || pristine.clone(),
            |mut t| t.repair_routes(&switch_mask),
            BatchSize::LargeInput,
        );
    });
    // Restore repair: the switch comes back. Before this existed every
    // restoration paid the full masked recompute above; now it is pure
    // restore surgery (zero BFS on a fat-tree core).
    let mut failed = pristine.clone();
    failed.repair_routes(&switch_mask);
    let empty_mask = FaultMask::new();
    g.bench_function("repair_switch_up_k10", |b| {
        b.iter_batched(
            || failed.clone(),
            |mut t| t.repair_routes(&empty_mask),
            BatchSize::LargeInput,
        );
    });

    // Layered policies (4 FatPaths-style layers): per-layer restore
    // repair vs the full recompute it replaces — the guard that layered
    // restorations stay well under the full bill, on the k=10 fat-tree
    // and on a 150-host Jellyfish. (The old `RouteSet::NonMinimal`
    // path paid `masked_recompute_layered_*` on every restoration.)
    for (label, mut layered) in [
        ("k10", Topology::fat_tree(10, 1_000_000_000, 10_000)),
        (
            "jelly",
            Topology::jellyfish(50, 5, 3, 1_000_000_000, 10_000, 1),
        ),
    ] {
        layered.set_policy(netsim::RoutingPolicy::layered(4, 7));
        layered.compute_routes();
        // Victim: the first inter-switch link of the first switch (an
        // edge uplink on the fat-tree, a random-graph link on
        // Jellyfish).
        let victim = (0..layered.node_count() as u32)
            .map(netsim::NodeId)
            .filter(|&n| layered.kind(n) == netsim::NodeKind::Switch)
            .find_map(|n| {
                layered
                    .node_ports(n)
                    .iter()
                    .position(|p| layered.kind(p.peer) == netsim::NodeKind::Switch)
                    .map(|p| (n, p as u16))
            })
            .expect("fabric has switch-switch links");
        let mut link_mask = FaultMask::new();
        link_mask.fail_link(&layered, victim.0, victim.1);
        let mut layered_failed = layered.clone();
        let outcome = layered_failed.repair_routes(&link_mask);
        assert!(!outcome.full, "layered link repair must stay incremental");
        g.bench_function(format!("masked_recompute_layered_{label}"), |b| {
            b.iter_batched(
                || layered.clone(),
                |mut t| t.compute_routes_masked(&link_mask),
                BatchSize::LargeInput,
            );
        });
        g.bench_function(format!("repair_layered_restore_{label}"), |b| {
            b.iter_batched(
                || layered_failed.clone(),
                |mut t| {
                    let o = t.repair_routes(&empty_mask);
                    assert!(!o.full, "layered restore repair must stay incremental");
                    o
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, fault_recovery, churn, reroute_cost);
criterion_main!(benches);
