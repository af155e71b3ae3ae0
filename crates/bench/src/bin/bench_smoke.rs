//! CI perf smoke: the telemetry layer's zero-cost contract, the
//! systematic codec's fast path and the sharded event loop are gated;
//! the route layer's absolute numbers are recorded.
//!
//! The forwarding and repair sections measure the two hot paths of the
//! route arenas — forwarding decisions (route-table lookup + ECMP pick)
//! and incremental route repair — on the paper's k=10 fat-tree and
//! write the medians to a machine-readable `BENCH_csr.json`. They carry
//! no gate: the whole-run ledger (`bench_e2e`, `topology.lookup_ns` and
//! the `topology.*_ms` lines) is where a regression is judged.
//!
//! The telemetry section drives the same fat-tree through a full
//! event-loop burst twice — once with the compiled-out [`NoTelemetry`]
//! sink (the pre-telemetry machine code) and once with the
//! runtime-switchable `Option<Recorder>` sink left `None` — and fails
//! if the disabled-telemetry loop falls below 95 % of baseline speed:
//! the "off by default, zero hot-path cost" contract, held in CI.
//!
//! The rq section decodes a lossless paper-scale block (4 MB, K = 2913)
//! through the systematic zero-copy fast path and through the legacy
//! solver path it replaces, and fails if the speedup drops below
//! `--min-rq-ratio` (default 3; 34 ms vs 0.66 ms at the last ROADMAP
//! re-anchor) — the codec tentpole's perf claim, held in CI.
//!
//! The parallel section measures full route recomputes and one-link
//! repairs on the k=16 fat-tree (1 024 hosts) and the 5 000-host
//! Jellyfish, serial vs 4 worker threads (`Topology::set_parallelism`).
//! Record-only: with one column per access switch a full recompute is a
//! few hundred sub-10 µs jobs, so the scatter has no traffic left to
//! speed up at this scale (ROADMAP item 4 decides whether it stays).
//!
//! The shard section runs the same two large fabrics through a whole
//! seeded churn line (fetches under faults, end to end), serial vs 4
//! conservative-window event-loop shards (`SimConfig::shards`), pins
//! serial/sharded byte-identity before timing, and fails if the best
//! speedup drops below `--min-shard-ratio` (default 1.5) — waived
//! below 4 cores, with the ratios and the shard counters (epochs,
//! cross-shard packets, horizon stalls) always recorded.
//!
//! ```sh
//! cargo run --release -p polyraptor_bench --bin bench_smoke -- \
//!     --smoke --out BENCH_csr.json
//! ```
//!
//! `--smoke` shrinks repeat counts, not the fabrics.

use std::time::Instant;

use netsim::{
    Agent, Ctx, Dest, FaultMask, FlowId, NoTelemetry, NodeId, NodeKind, Packet, Recorder,
    SimConfig, SimPayload, Simulator, TelemetrySink, Topology,
};
use workload::{run_churn_rq, ChurnReport, ChurnScenario, Fabric, RqRunOptions};

/// Median of a sample set (ns); the samples are per-call averages.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Deterministic (switch, destination-index, flow) visit order of the
/// forwarding sweep and the parallel-identity spot check.
fn decision_pairs(t: &Topology, count: usize) -> Vec<(usize, usize, usize)> {
    let switches: Vec<NodeId> = (0..t.node_count() as u32)
        .map(NodeId)
        .filter(|&n| t.kind(n) == NodeKind::Switch)
        .collect();
    let n_hosts = t.hosts().len();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..count)
        .map(|_| {
            (
                switches[next() % switches.len()].0 as usize,
                next() % n_hosts,
                next(),
            )
        })
        .collect()
}

struct Forwarding {
    ns_per_decision: f64,
    decisions: usize,
}

fn forwarding(t: &Topology, repeats: usize) -> Forwarding {
    let decisions = 65_536;
    let pairs = decision_pairs(t, decisions);
    let sweep = || {
        let mut acc = 0u64;
        for &(s, h, f) in &pairs {
            let ports = t.try_next_ports_at(0, NodeId(s as u32), h);
            if !ports.is_empty() {
                acc += u64::from(ports[f % ports.len()]);
            }
        }
        acc
    };
    std::hint::black_box(sweep()); // warm
    let samples = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(sweep());
            start.elapsed().as_nanos() as f64 / decisions as f64
        })
        .collect();
    Forwarding {
        ns_per_decision: median(samples),
        decisions,
    }
}

struct Repairs {
    single_link_ns: f64,
    switch_down_ns: f64,
    switch_up_ns: f64,
    full_recompute_ns: f64,
}

fn repairs(pristine: &Topology, repeats: usize) -> Repairs {
    let core = NodeId(pristine.node_count() as u32 - 1);
    let mut link_mask = FaultMask::new();
    link_mask.fail_link(pristine, core, 0);
    let mut node_mask = FaultMask::new();
    node_mask.fail_node(core);
    let time = |f: &mut dyn FnMut(&mut Topology), reps: usize| {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut t = pristine.clone();
            let start = Instant::now();
            f(&mut t);
            samples.push(start.elapsed().as_nanos() as f64);
        }
        median(samples)
    };
    let single_link_ns = time(
        &mut |t| {
            assert!(!t.repair_routes(&link_mask).full);
        },
        repeats,
    );
    let switch_down_ns = time(
        &mut |t| {
            assert!(!t.repair_routes(&node_mask).full);
        },
        repeats,
    );
    let full_recompute_ns = time(&mut |t| t.compute_routes_masked(&link_mask), repeats.min(5));
    // Restoration: fail the switch in (untimed) setup, time only the
    // back-to-healthy repair delta.
    let switch_up_ns = {
        let healthy = FaultMask::new();
        let mut samples = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let mut t = pristine.clone();
            t.repair_routes(&node_mask);
            let start = Instant::now();
            assert!(!t.repair_routes(&healthy).full);
            samples.push(start.elapsed().as_nanos() as f64);
        }
        median(samples)
    };
    Repairs {
        single_link_ns,
        switch_down_ns,
        switch_up_ns,
        full_recompute_ns,
    }
}

/// Minimal trimmable payload for the event-loop benchmark.
#[derive(Debug, Clone)]
enum BenchPayload {
    Data,
    Hdr,
}

impl SimPayload for BenchPayload {
    fn is_control(&self) -> bool {
        matches!(self, BenchPayload::Hdr)
    }
    fn trim(&self) -> Option<Self> {
        Some(BenchPayload::Hdr)
    }
}

/// Burst agent: sends its preloaded batch on the start timer, counts
/// receptions. Enough to exercise the event loop's hot path (enqueue,
/// forward, deliver) without any protocol machinery.
struct Burst {
    to_send: Vec<Packet<BenchPayload>>,
    received: u64,
}

impl Agent<BenchPayload> for Burst {
    fn on_packet(&mut self, _pkt: Packet<BenchPayload>, _ctx: &mut Ctx<BenchPayload>) {
        self.received += 1;
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<BenchPayload>) {
        for pkt in self.to_send.drain(..) {
            ctx.send(pkt);
        }
    }
}

/// Preload every host with a burst to its neighbour and run to
/// completion; returns (wall ns, packets delivered).
fn drive_burst<T: TelemetrySink + Send + Sync>(
    mut sim: Simulator<BenchPayload, Burst, T>,
    per_host: u32,
) -> (f64, u64) {
    let hosts = sim.topology().hosts().to_vec();
    let n = hosts.len();
    for (i, &h) in hosts.iter().enumerate() {
        let dst = hosts[(i + 1) % n];
        let to_send = (0..per_host)
            .map(|p| Packet {
                src: h,
                dst: Dest::Host(dst),
                flow: FlowId(u64::from(p % 8)),
                size: 1500,
                payload: BenchPayload::Data,
            })
            .collect();
        sim.set_agent(
            h,
            Burst {
                to_send,
                received: 0,
            },
        );
        sim.schedule_timer(h, netsim::SimTime::ZERO, 0);
    }
    let start = Instant::now();
    sim.run_to_completion();
    let ns = start.elapsed().as_nanos() as f64;
    let delivered = sim.agents().map(|(_, a)| a.received).sum();
    (ns, delivered)
}

struct TelemetryBench {
    baseline_ns: f64,
    off_ns: f64,
    per_host: u32,
}

/// The zero-cost contract: the `Option<Recorder>` sink left `None`
/// (what every runner installs when telemetry is off) vs the
/// monomorphized-away `NoTelemetry` baseline, interleaved like the
/// forwarding sweeps. Panics if the two variants deliver different
/// packet counts — the sink must not change behaviour, only speed.
fn telemetry_overhead(t: &Topology, repeats: usize) -> TelemetryBench {
    let per_host = 64u32;
    let run_baseline = || {
        let sim: Simulator<BenchPayload, Burst, NoTelemetry> =
            Simulator::new(t.clone(), SimConfig::ndp(1));
        drive_burst(sim, per_host)
    };
    let run_off = || {
        let sim: Simulator<BenchPayload, Burst, Option<Recorder>> =
            Simulator::with_telemetry(t.clone(), SimConfig::ndp(1), None);
        drive_burst(sim, per_host)
    };
    // Warm once and pin the behavioural identity.
    let (_, base_delivered) = run_baseline();
    let (_, off_delivered) = run_off();
    assert_eq!(
        base_delivered, off_delivered,
        "disabled telemetry must not change delivery"
    );
    let mut baseline = Vec::with_capacity(repeats);
    let mut off = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        baseline.push(run_baseline().0);
        off.push(run_off().0);
    }
    TelemetryBench {
        baseline_ns: median(baseline),
        off_ns: median(off),
        per_host,
    }
}

struct RqBench {
    k: usize,
    symbol_size: usize,
    fast_ns: f64,
    legacy_solver_ns: f64,
}

/// The systematic-codec fast-path gate: decode a lossless paper-scale
/// block (4 MB at 1440-byte symbols, K = 2913) via the systematic
/// zero-copy path and via the legacy construction *forced through the
/// solver* — the work the fast path exists to avoid. (Legacy
/// `try_decode` also shortcuts a complete source receipt, so the honest
/// baseline is the solver entry point.) The interleaved medians feed
/// the `--min-rq-ratio` gate.
fn rq_fast_path(repeats: usize) -> RqBench {
    let symbol_size = 1440usize;
    let data: Vec<u8> = (0..(4usize << 20)).map(|i| (i * 131 + 17) as u8).collect();
    let sys = rq::Encoder::new(&data, symbol_size).expect("non-empty block");
    let leg = rq::Encoder::legacy(&data, symbol_size).expect("non-empty block");
    let k = sys.params().k;
    let receive_all = |enc: &rq::Encoder| {
        let mut dec = rq::Decoder::new(enc.params());
        for esi in 0..k as u32 {
            dec.push(esi, enc.symbol(esi));
        }
        dec
    };
    let dec_sys = receive_all(&sys);
    let dec_leg = receive_all(&leg);
    // Warm both paths once and pin byte-identity of their outputs.
    assert_eq!(
        dec_sys.try_decode().expect("lossless decode"),
        dec_leg.try_decode_solver().expect("lossless decode"),
        "fast path and legacy solver must agree"
    );
    let mut fast = Vec::with_capacity(repeats);
    let mut solver = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(dec_sys.try_decode().expect("lossless decode"));
        fast.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        std::hint::black_box(dec_leg.try_decode_solver().expect("lossless decode"));
        solver.push(start.elapsed().as_nanos() as f64);
    }
    assert_eq!(
        dec_sys.decode_stats().solver_decodes,
        0,
        "the gated path must never touch the solver"
    );
    RqBench {
        k,
        symbol_size,
        fast_ns: median(fast),
        legacy_solver_ns: median(solver),
    }
}

struct ParBench {
    label: &'static str,
    hosts: usize,
    serial_full_ns: f64,
    par_full_ns: f64,
    serial_repair_ns: f64,
    par_repair_ns: f64,
}

impl ParBench {
    fn full_ratio(&self) -> f64 {
        self.serial_full_ns / self.par_full_ns
    }
    fn repair_ratio(&self) -> f64 {
        self.serial_repair_ns / self.par_repair_ns
    }
}

/// Serial vs `threads`-worker route computation on one of the large
/// fabrics: a full masked recompute and
/// a one-link repair, interleaved medians. Byte-identity between the
/// two is property-tested exhaustively in `fabric_invariants`; a spot
/// check over a deterministic sample of (switch, destination) pairs is
/// pinned here so the bench can never race ahead of a correctness bug.
fn parallel_routes(
    pristine: Topology,
    label: &'static str,
    threads: usize,
    repeats: usize,
) -> ParBench {
    let hosts = pristine.hosts().len();
    let sw = (0..pristine.node_count() as u32)
        .rev()
        .map(NodeId)
        .find(|&n| pristine.kind(n) == NodeKind::Switch)
        .expect("fabric has a switch");
    let mut link_mask = FaultMask::new();
    link_mask.fail_link(&pristine, sw, 0);
    let healthy = FaultMask::new();
    let mut serial = pristine.clone();
    serial.set_parallelism(1);
    let mut par = pristine;
    par.set_parallelism(threads);
    // Warm both and spot-check identity on a deterministic sample.
    serial.compute_routes_masked(&healthy);
    par.compute_routes_masked(&healthy);
    for &(s, h, _) in &decision_pairs(&serial, 256) {
        assert_eq!(
            serial.try_next_ports_at(0, NodeId(s as u32), h),
            par.try_next_ports_at(0, NodeId(s as u32), h),
            "{label}: parallel route table diverged from serial"
        );
    }
    let mut sf = Vec::with_capacity(repeats);
    let mut pf = Vec::with_capacity(repeats);
    let mut sr = Vec::with_capacity(repeats);
    let mut pr = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        serial.compute_routes_masked(&healthy);
        sf.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        par.compute_routes_masked(&healthy);
        pf.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        serial.repair_routes(&link_mask);
        sr.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        par.repair_routes(&link_mask);
        pr.push(start.elapsed().as_nanos() as f64);
        // Back to healthy for the next iteration's full recompute (the
        // restore itself is the next loop's untimed warm state).
        serial.repair_routes(&healthy);
        par.repair_routes(&healthy);
    }
    ParBench {
        label,
        hosts,
        serial_full_ns: median(sf),
        par_full_ns: median(pf),
        serial_repair_ns: median(sr),
        par_repair_ns: median(pr),
    }
}

struct ShardBench {
    label: &'static str,
    hosts: usize,
    serial_ns: f64,
    sharded_ns: f64,
    shard_epochs: u64,
    cross_shard_packets: u64,
    horizon_stalls: u64,
}

impl ShardBench {
    fn ratio(&self) -> f64 {
        self.serial_ns / self.sharded_ns
    }
}

/// Serial event loop vs `shards` conservative-window workers on one of
/// the large churn lines the sharded loop exists for: the same seeded
/// fetch-under-faults run, interleaved medians. Byte-identity across
/// shard counts is property-tested on the small fabrics in
/// `sharded_identity`; the per-flow fingerprint and the
/// shard-invariant fabric stats are re-pinned here at full scale so
/// the bench can never race ahead of a correctness bug.
fn sharded_event_loop(
    fabric: &Fabric,
    label: &'static str,
    hosts: usize,
    shards: usize,
    smoke: bool,
    repeats: usize,
) -> ShardBench {
    let (sessions, bytes, faults) = if smoke {
        (6usize, 256usize << 10, 6usize)
    } else {
        (8, 1 << 20, 10)
    };
    let mut sc = ChurnScenario::ten_event(sessions, bytes, 2);
    sc.fault_events = faults;
    let run = |n: usize| -> (f64, ChurnReport) {
        let opts = RqRunOptions {
            shards: n,
            ..Default::default()
        };
        let start = Instant::now();
        let rep = run_churn_rq(&sc, fabric, &opts);
        (start.elapsed().as_nanos() as f64, rep)
    };
    // Warm both variants once and pin the identity contract.
    let (_, serial_rep) = run(1);
    let (_, sharded_rep) = run(shards);
    assert_eq!(
        serial_rep.fabric.shard_invariant(),
        sharded_rep.fabric.shard_invariant(),
        "{label}: sharded fabric stats diverged from serial"
    );
    let fp = |rep: &ChurnReport| -> Vec<(u32, u64, u64)> {
        rep.flows
            .iter()
            .map(|f| (f.session, f.start.as_nanos(), f.finish.as_nanos()))
            .collect()
    };
    assert_eq!(
        fp(&serial_rep),
        fp(&sharded_rep),
        "{label}: sharded per-flow timings diverged from serial"
    );
    let mut serial = Vec::with_capacity(repeats);
    let mut sharded = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        serial.push(run(1).0);
        sharded.push(run(shards).0);
    }
    ShardBench {
        label,
        hosts,
        serial_ns: median(serial),
        sharded_ns: median(sharded),
        shard_epochs: sharded_rep.fabric.shard_epochs,
        cross_shard_packets: sharded_rep.fabric.cross_shard_packets,
        horizon_stalls: sharded_rep.fabric.horizon_stalls,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out = flag("--out").unwrap_or_else(|| "BENCH_csr.json".to_string());
    let min_rq_ratio: f64 = flag("--min-rq-ratio")
        .map(|v| v.parse().expect("--min-rq-ratio takes a number"))
        .unwrap_or(3.0);
    let min_shard_ratio: f64 = flag("--min-shard-ratio")
        .map(|v| v.parse().expect("--min-shard-ratio takes a number"))
        .unwrap_or(1.5);
    let repeats = if smoke { 9 } else { 31 };

    let k = 10usize;
    let t = Topology::fat_tree(k, 1_000_000_000, 10_000);
    let hosts = t.hosts().len();
    let switches = t.node_count() - hosts;
    let fwd = forwarding(&t, repeats);
    let rep = repairs(&t, repeats);
    let tel = telemetry_overhead(&t, repeats);
    let rq_bench = rq_fast_path(repeats);
    // Parallel route computation on the two large fabrics (recorded,
    // not gated): the k=16 fat-tree and the 5 000-host Jellyfish.
    let par_threads = 4usize;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_benches = [
        parallel_routes(
            Topology::fat_tree(16, 1_000_000_000, 10_000),
            "fat_tree_k16",
            par_threads,
            repeats.min(5),
        ),
        parallel_routes(
            Topology::jellyfish(250, 12, 20, 1_000_000_000, 10_000, 1),
            "jellyfish_5000",
            par_threads,
            repeats.min(3),
        ),
    ];
    // The sharded event loop on the same two large churn lines: the
    // whole seeded run end to end, serial vs 4 conservative-window
    // shard workers.
    let shard_count = 4usize;
    let shard_benches = [
        sharded_event_loop(
            &Fabric::large(),
            "fat_tree_k16",
            1024,
            shard_count,
            smoke,
            repeats.min(3),
        ),
        sharded_event_loop(
            &Fabric::large_jellyfish(),
            "jellyfish_5000",
            5000,
            shard_count,
            smoke,
            repeats.min(3),
        ),
    ];
    // Systematic no-loss decode vs the legacy solver path it replaces:
    // 34 ms vs 0.66 ms at the last ROADMAP re-anchor; the 3x floor leaves a wide
    // margin for shared-runner noise while still catching any solver
    // work leaking back into the lossless path.
    let rq_ratio = rq_bench.legacy_solver_ns / rq_bench.fast_ns;
    let rq_pass = rq_ratio >= min_rq_ratio;
    // Telemetry-off event loop vs the compiled-out baseline: >= 1.0
    // means free; the 0.95 floor absorbs shared-runner noise while
    // still catching any real per-event cost sneaking into the sink.
    let min_telemetry_ratio = 0.95f64;
    let telemetry_ratio = tel.baseline_ns / tel.off_ns;
    let telemetry_pass = telemetry_ratio >= min_telemetry_ratio;
    // The sharded-loop speedup is a real-concurrency claim: enforced
    // only when the machine has the shard count in cores, always
    // measured and recorded.
    let shard_enforced = cores >= shard_count;
    let best_shard_ratio = shard_benches
        .iter()
        .map(ShardBench::ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    let shard_pass = !shard_enforced || best_shard_ratio >= min_shard_ratio;
    let pass = telemetry_pass && rq_pass && shard_pass;

    let par_json = par_benches
        .iter()
        .map(|b| {
            format!(
                "\"{}\": {{\"hosts\": {}, \"serial_full_ns\": {:.0}, \
                 \"par_full_ns\": {:.0}, \"full_ratio\": {:.3}, \
                 \"serial_repair_ns\": {:.0}, \"par_repair_ns\": {:.0}, \
                 \"repair_ratio\": {:.3}}}",
                b.label,
                b.hosts,
                b.serial_full_ns,
                b.par_full_ns,
                b.full_ratio(),
                b.serial_repair_ns,
                b.par_repair_ns,
                b.repair_ratio(),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let shard_json = shard_benches
        .iter()
        .map(|b| {
            format!(
                "\"{}\": {{\"hosts\": {}, \"serial_ns\": {:.0}, \
                 \"sharded_ns\": {:.0}, \"ratio\": {:.3}, \
                 \"shard_epochs\": {}, \"cross_shard_packets\": {}, \
                 \"horizon_stalls\": {}}}",
                b.label,
                b.hosts,
                b.serial_ns,
                b.sharded_ns,
                b.ratio(),
                b.shard_epochs,
                b.cross_shard_packets,
                b.horizon_stalls,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"schema\": \"polyraptor-bench-csr/v2\",\n  \"mode\": \"{}\",\n  \
         \"fabric\": {{\"kind\": \"fat_tree\", \"k\": {k}, \"hosts\": {hosts}, \
         \"switches\": {switches}}},\n  \
         \"forwarding\": {{\"ns_per_decision\": {:.3}, \
         \"decisions_per_sweep\": {}}},\n  \
         \"repair\": {{\"single_link_ns\": {:.0}, \"switch_down_ns\": {:.0}, \
         \"switch_up_ns\": {:.0}, \"full_recompute_ns\": {:.0}}},\n  \
         \"telemetry\": {{\"baseline_run_ns\": {:.0}, \"off_run_ns\": {:.0}, \
         \"ratio_off_over_baseline\": {:.3}, \"packets_per_host\": {}, \
         \"min_telemetry_ratio\": {min_telemetry_ratio}}},\n  \
         \"rq\": {{\"k\": {}, \"symbol_size\": {}, \
         \"systematic_noloss_ns\": {:.0}, \"legacy_solver_ns\": {:.0}, \
         \"ratio_legacy_over_systematic\": {:.3}, \"min_rq_ratio\": {min_rq_ratio}}},\n  \
         \"parallel\": {{\"threads\": {par_threads}, \"cores\": {cores}, \
         {par_json}}},\n  \
         \"shard\": {{\"shards\": {shard_count}, \"cores\": {cores}, \
         \"min_shard_ratio\": {min_shard_ratio}, \"enforced\": {shard_enforced}, \
         {shard_json}}},\n  \
         \"pass\": {pass}\n}}\n",
        if smoke { "smoke" } else { "full" },
        fwd.ns_per_decision,
        fwd.decisions,
        rep.single_link_ns,
        rep.switch_down_ns,
        rep.switch_up_ns,
        rep.full_recompute_ns,
        tel.baseline_ns,
        tel.off_ns,
        telemetry_ratio,
        tel.per_host,
        rq_bench.k,
        rq_bench.symbol_size,
        rq_bench.fast_ns,
        rq_bench.legacy_solver_ns,
        rq_ratio,
    );
    std::fs::write(&out, &json).expect("write BENCH_csr.json");
    print!("{json}");
    println!(
        "forwarding {:.2} ns per decision; one-link repair {:.1} us, full recompute {:.1} us \
         (recorded)",
        fwd.ns_per_decision,
        rep.single_link_ns / 1e3,
        rep.full_recompute_ns / 1e3,
    );
    println!(
        "telemetry-off event loop {:.2} ms vs baseline {:.2} ms \
         ({telemetry_ratio:.3}x, floor {min_telemetry_ratio}x) -> {}",
        tel.off_ns / 1e6,
        tel.baseline_ns / 1e6,
        if telemetry_pass { "pass" } else { "FAIL" },
    );
    println!(
        "rq no-loss decode: systematic {:.2} ms vs legacy solver {:.2} ms at k={} \
         ({rq_ratio:.1}x, threshold {min_rq_ratio}x) -> {}",
        rq_bench.fast_ns / 1e6,
        rq_bench.legacy_solver_ns / 1e6,
        rq_bench.k,
        if rq_pass { "pass" } else { "FAIL" },
    );
    for b in &par_benches {
        println!(
            "parallel routes ({par_threads} threads, recorded) {}: full {:.2} ms -> {:.2} ms \
             ({:.2}x), one-link repair {:.2} ms -> {:.2} ms ({:.2}x)",
            b.label,
            b.serial_full_ns / 1e6,
            b.par_full_ns / 1e6,
            b.full_ratio(),
            b.serial_repair_ns / 1e6,
            b.par_repair_ns / 1e6,
            b.repair_ratio(),
        );
    }
    for b in &shard_benches {
        println!(
            "sharded event loop ({shard_count} shards) {}: churn {:.1} ms -> {:.1} ms \
             ({:.2}x; {} epochs, {} cross-shard packets, {} stalls)",
            b.label,
            b.serial_ns / 1e6,
            b.sharded_ns / 1e6,
            b.ratio(),
            b.shard_epochs,
            b.cross_shard_packets,
            b.horizon_stalls,
        );
    }
    println!(
        "sharded event-loop gate (threshold {min_shard_ratio}x, best \
         {best_shard_ratio:.2}x) -> {}",
        if !shard_enforced {
            // A 4-shard speedup claim is unmeasurable on fewer cores;
            // the ratios above are recorded, the gate is waived.
            format!("skipped: {cores} core(s) < {shard_count} shards")
        } else if shard_pass {
            "pass".to_string()
        } else {
            "FAIL".to_string()
        },
    );
    if !pass {
        std::process::exit(1);
    }
}
