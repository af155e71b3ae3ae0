//! Mid-run core-switch failure on the paper's 250-host fat-tree:
//! Polyraptor vs. TCP when the fabric actively fails underneath them,
//! plus incremental route repair in isolation (vs. a full masked
//! recomputation).
//!
//! The victim is the core switch that the most ECMP-pinned TCP flows
//! cross at the failure instant (chosen by replaying the fabric's ECMP
//! hash, so the comparison is guaranteed to be about failure handling).
//! Both transports see the same 25 ms control-plane convergence window:
//! Polyraptor sprays around the blackhole and repairs its multicast
//! trees — every session completes with a modest slowdown — while TCP's
//! pinned flows stall until their retransmission timers fire.
//!
//! `--churn` switches to the fault-churn soak: a sustained Poisson
//! fault process (links, sub-convergence-window flaps, transit
//! switches, and host failures with session re-target) over a
//! 3-replica fetch workload, printing completion/recovery percentiles
//! and the coalescing/restore counters beside the TCP baseline's.
//!
//! `--telemetry` records the run (time-series buckets, fault, reroute
//! and anomaly annotations, flow spans) and writes
//! `{fault,churn}_{fabric.csv,ports.csv,trace.json}` into
//! `target/telemetry/`; the trace loads in Perfetto. Recording changes
//! nothing else — the run stays byte-identical per seed.
//!
//! ```sh
//! cargo run --release --example fabric_faults            # 250-host fabric
//! cargo run --release --example fabric_faults -- --smoke # 16-host quick run
//! cargo run --release --example fabric_faults -- --churn [--smoke] [--telemetry]
//! cargo run --release --example fabric_faults -- --churn --shards 4 # sharded event loop
//! ```
//!
//! `--shards N` sets the event-loop shards (conservative-window shard
//! workers; 0 = available cores, 1 = one shard, inline): per-seed
//! results are identical at every shard count — the flag only changes
//! event-loop wall-clock — and `--churn` prints the partition's counted
//! speed-up ceiling (events ÷ events on the critical path).

use std::path::Path;

use polyraptor_repro::netsim::{FabricStats, FaultMask, RouteRepair, Topology};
use polyraptor_repro::workload::{
    run, ChurnScenario, Fabric, FaultScenario, RankCurve, RqRunOptions, RunReport, RunTelemetry,
    TcpRunOptions, TelemetryOptions, Transport,
};

/// Where `--telemetry` artefacts land.
const TELEMETRY_DIR: &str = "target/telemetry";

/// `--shards N`: event-loop shards (0 = available cores, 1 = one
/// shard inline, the default). Results are byte-identical per seed at
/// every setting — the flag only changes event-loop wall-clock on the
/// large fabrics.
fn shards_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .map(|i| {
            args.get(i + 1)
                .expect("--shards takes a shard count")
                .parse()
                .expect("--shards takes a shard count")
        })
        .unwrap_or(1)
}

/// Per-layer trim shares: each layer's trims as count and share of all
/// layer-attributed trims, next to what the layer forwarded. Layers
/// that neither forwarded nor trimmed anything are skipped.
fn layer_trim_line(fabric: &FabricStats) -> String {
    let total: u64 = fabric.layer_trimmed.iter().sum();
    let parts: Vec<String> = fabric
        .layer_forwarded
        .iter()
        .zip(&fabric.layer_trimmed)
        .enumerate()
        .filter(|(_, (&fwd, &trims))| fwd > 0 || trims > 0)
        .map(|(l, (&fwd, &trims))| {
            let share = if total == 0 {
                0.0
            } else {
                trims as f64 * 100.0 / total as f64
            };
            format!("L{l} {trims} trims/{fwd} fwd ({share:.1}% of trims)")
        })
        .collect();
    parts.join(", ")
}

fn write_telemetry(t: &RunTelemetry, prefix: &str) {
    let paths = t
        .write_files(Path::new(TELEMETRY_DIR), prefix)
        .expect("write telemetry artefacts");
    println!("  telemetry: {}", t.describe());
    for p in paths {
        println!("  telemetry: wrote {}", p.display());
    }
}

/// Wall-clock the control-plane bill of one link failure on `fabric`:
/// a full masked recomputation vs. the incremental repair (and what it
/// rebuilt) — and the bytes of route table they maintain.
fn time_reroute(fabric: &Fabric) -> (f64, f64, RouteRepair, usize) {
    let pristine = fabric.build();
    // Victim: the first switch-switch link (an edge/leaf uplink).
    let (node, port) = pristine
        .switch_links()
        .next()
        .expect("fabric has switch-switch links");
    let mut mask = FaultMask::new();
    mask.fail_link(&pristine, node, port);
    let wall = |f: &mut dyn FnMut(&mut Topology)| {
        let mut t = pristine.clone();
        let start = std::time::Instant::now();
        f(&mut t);
        start.elapsed().as_secs_f64() * 1e3
    };
    let full_ms = wall(&mut |t| t.compute_routes_masked(&mask));
    let mut repair = None;
    let repair_ms = wall(&mut |t| repair = Some(t.repair_routes(&mask)));
    let repair = repair.expect("the repair ran");
    (full_ms, repair_ms, repair, pristine.route_table_bytes())
}

fn churn_line(label: &str, rep: &RunReport) {
    let c = rep.completion();
    println!(
        "  {label:<14} completion p50 {:.2} p99 {:.2} max {:.2} ms \
         ({} fetches, all complete, {} timeouts)",
        c.p50_ns as f64 / 1e6,
        c.p99_ns as f64 / 1e6,
        c.max_ns as f64 / 1e6,
        c.flows,
        rep.timeouts,
    );
    if let Some(r) = rep.recovery() {
        println!(
            "  {label:<14} recovery   p50 {:.2} p99 {:.2} max {:.2} ms \
             ({} fetch×fault pairs in flight)",
            r.p50_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.max_ns as f64 / 1e6,
            r.flows,
        );
    }
    println!(
        "  {label:<14} {} host failures -> {} sessions stranded, {} re-targeted \
         ({} symbols re-pulled from survivors)",
        rep.host_failures, rep.stranded_sessions, rep.retargeted_sessions, rep.retarget_symbols,
    );
    println!(
        "  {label:<14} fabric: {} reroutes ({} incremental, {} restore-incremental), \
         {} flaps coalesced, {} lost to faults",
        rep.fabric.reroutes,
        rep.fabric.reroutes_incremental,
        rep.fabric.restores_incremental,
        rep.fabric.flaps_coalesced,
        rep.fabric.lost_to_fault,
    );
    let layers = layer_trim_line(&rep.fabric);
    if !layers.is_empty() {
        println!("  {label:<14} per-layer trims: {layers}");
    }
}

fn run_churn(smoke: bool, telemetry: bool) {
    let (fabric, sessions, object_bytes, events) = if smoke {
        (Fabric::small(), 6, 2 << 20, 12)
    } else {
        (Fabric::paper(), 24, 4 << 20, 10)
    };
    let mut sc = ChurnScenario::ten_event(sessions, object_bytes, 2);
    sc.fault_events = events;
    println!(
        "{} x {} MB 3-replica fetches on a {} under a {}-event Poisson fault process\n\
         (links, sub-convergence-window flaps, transit switches, host failures; \
         every failure repairs after {} ms)\n",
        sessions,
        object_bytes >> 20,
        fabric.describe(),
        sc.fault_events,
        sc.repair_delay_ns / 1_000_000,
    );
    let mut opts = RqRunOptions {
        shards: shards_flag(),
        ..Default::default()
    };
    if telemetry {
        opts.telemetry = TelemetryOptions::enabled_default();
    }
    let rep = run(sc.build(&fabric, Transport::Rq(opts)));
    churn_line("polyraptor", &rep);
    let (events, critical) = (rep.fabric.events, rep.fabric.shard_critical_events);
    if critical > 0 {
        println!(
            "  speed-up ceiling at {} shards: {events} events ÷ {critical} on the critical path = {:.3}",
            opts.shards,
            events as f64 / critical as f64,
        );
    }
    if let Some(t) = &rep.telemetry {
        write_telemetry(t, "churn");
    }
    // The TCP baseline under the identical seeded fault plan: one
    // ECMP-pinned connection per replica stripe, no re-target — a dead
    // replica's stripe stalls until the scripted repair and the
    // retransmission machinery, which is exactly the RTO-driven tail
    // the comparison shows. A fetch completes when its last stripe does.
    let tcp =
        run(sc.build(&fabric, Transport::Tcp(TcpRunOptions::default()))).into_ops(sc.object_bytes);
    println!();
    churn_line("tcp", &tcp);
    let (p, t) = (rep.completion(), tcp.completion());
    println!(
        "\nEvery fetch completes under sustained churn: path redundancy (spraying +\n\
         restore repair) rides out the fabric events, data redundancy (coded replicas +\n\
         re-target) rides out the host failures — flapping links coalesce to no-op\n\
         deltas instead of full route recomputes, and recovery is pull-paced (0\n\
         timeouts). The TCP baseline survives on its retransmission timers instead:\n\
         {} RTO firings; completion p99 {:.2} ms vs {:.2} ms for Polyraptor under\n\
         the same fault plan.",
        tcp.timeouts,
        t.p99_ns as f64 / 1e6,
        p.p99_ns as f64 / 1e6,
    );

    // The CSR route arenas make churn at real datacenter scale
    // practical: the same Poisson fault process on a 1024-host k=16
    // fat-tree and a 5000-host Jellyfish, with the one-link
    // control-plane bill alongside. Runs in both modes (smaller
    // workload under --smoke) so CI executes the scale claim.
    let (big_sessions, big_bytes, big_events) = if smoke {
        (4, 256 << 10, 6)
    } else {
        (8, 1 << 20, 10)
    };
    println!();
    for fabric in [Fabric::large(), Fabric::large_jellyfish()] {
        let mut big = ChurnScenario::ten_event(big_sessions, big_bytes, 2);
        big.fault_events = big_events;
        let big_opts = RqRunOptions {
            shards: shards_flag(),
            ..Default::default()
        };
        let rep = run(big.build(&fabric, Transport::Rq(big_opts)));
        let c = rep.completion();
        let (full_ms, repair_ms, _, table_bytes) = time_reroute(&fabric);
        println!(
            "large-fabric churn: {}: completion p99 {:.2} ms, {} reroutes \
             ({} incremental, {} restore-incremental), {} timeouts; \
             one-link repair {repair_ms:.2} ms vs {full_ms:.2} ms full recompute, \
             route tables {:.1} MB",
            fabric.describe(),
            c.p99_ns as f64 / 1e6,
            rep.fabric.reroutes,
            rep.fabric.reroutes_incremental,
            rep.fabric.restores_incremental,
            rep.timeouts,
            table_bytes as f64 / (1 << 20) as f64,
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let telemetry = std::env::args().any(|a| a == "--telemetry");
    if std::env::args().any(|a| a == "--churn") {
        run_churn(smoke, telemetry);
        return;
    }
    let (fabric, sessions, object_bytes) = if smoke {
        (Fabric::small(), 4, 128 << 10)
    } else {
        (Fabric::paper(), 8, 1 << 20)
    };
    let sc = FaultScenario::fig1_failure(sessions, object_bytes, 42);
    println!(
        "{} x {} KB 3-replica writes on a {}; busiest core switch fails mid-transfer\n",
        sessions,
        object_bytes >> 10,
        fabric.describe()
    );

    let mut rq_opts = RqRunOptions {
        shards: shards_flag(),
        ..Default::default()
    };
    if telemetry {
        rq_opts.telemetry = TelemetryOptions::enabled_default();
    }
    let rq_run = sc.build(&fabric, Transport::Rq(rq_opts));
    let victim = sc.victim_core(&rq_run.topo);
    let rq = run(rq_run);
    let (rq_default, tcp_default) = (
        Transport::Rq(RqRunOptions::default()),
        Transport::Tcp(TcpRunOptions::default()),
    );
    let rq_healthy = run(sc.healthy().build(&fabric, rq_default));
    let tcp = run(sc.build(&fabric, tcp_default));
    let tcp_healthy = run(sc.healthy().build(&fabric, tcp_default));

    println!(
        "victim: core switch {} down at t = {:.2} ms\n",
        victim.0,
        rq.fault_instants
            .first()
            .expect("faulted run")
            .as_secs_f64()
            * 1e3
    );
    for (label, faulted, healthy) in [
        ("Polyraptor", &rq, &rq_healthy),
        ("TCP", &tcp, &tcp_healthy),
    ] {
        let curve = RankCurve::new(faulted.flows.iter().map(|f| f.goodput_gbps()).collect());
        println!(
            "  {label:<10} goodput best {:.3} median {:.3} worst {:.3} Gbps",
            curve.at(0),
            curve.median(),
            curve.at(curve.len() - 1)
        );
        println!(
            "  {label:<10} makespan {:.2} ms (healthy {:.2} ms)  timeouts {}  \
             lost-to-fault {}  reroutes {} ({} incremental)  trees repaired {}",
            faulted.makespan().as_secs_f64() * 1e3,
            healthy.makespan().as_secs_f64() * 1e3,
            faulted.timeouts,
            faulted.fabric.lost_to_fault,
            faulted.fabric.reroutes,
            faulted.fabric.reroutes_incremental,
            faulted.fabric.trees_repaired,
        );
        if let Some(rec) = faulted.recovery() {
            println!(
                "  {label:<10} recovery latency p50 {:.2} p99 {:.2} max {:.2} ms \
                 ({} flows in flight at failure)",
                rec.p50_ns as f64 / 1e6,
                rec.p99_ns as f64 / 1e6,
                rec.max_ns as f64 / 1e6,
                rec.flows,
            );
        }
    }

    if let Some(t) = &rq.telemetry {
        write_telemetry(t, "fault");
    }

    // Incremental route repair, isolated: the control-plane bill of one
    // link failure on this fabric.
    let (full_ms, repair_ms, repair, _) = time_reroute(&fabric);
    println!(
        "\nincremental route repair: {repair_ms:.3} ms ({} route columns rebuilt) \
         vs {full_ms:.3} ms full recompute ({:.1}x)",
        repair.dests_rebuilt,
        full_ms / repair_ms,
    );

    println!(
        "\nEvery Polyraptor session completes — spraying rides around the blackhole and\n\
         coded repair replaces lost symbols, no timeouts involved; TCP's ECMP-pinned\n\
         flows stall until their (200 ms floor) retransmission timers fire."
    );
}
