//! Ablations over the design choices DESIGN.md calls out (§4):
//!
//! * packet trimming vs drop-tail under Polyraptor;
//! * per-packet spraying vs per-flow ECMP;
//! * multicast pull policy: strict aggregation (paper §2 text) vs pull
//!   coalescing (`Any`, the default) — and straggler detach under strict;
//! * initial window sizing;
//! * RaptorQ-family code vs plain LT (reception overhead).
//!
//! Each ablation prints its headline comparison — simulated results,
//! not timings: `cargo run --release --bin ablations`.

use netsim::QueueConfig;
use polyraptor::MulticastPull;
use workload::{
    foreground_goodputs, run_incast_rq, run_storage_rq, Fabric, IncastScenario, RankCurve,
    RqRunOptions, StorageScenario,
};

const SESSIONS: usize = 40;

fn median_with(opts: &RqRunOptions, replicas: usize) -> f64 {
    let sc = StorageScenario::fig1a(SESSIONS, replicas, 1);
    let res = run_storage_rq(&sc, &Fabric::small(), opts);
    RankCurve::new(foreground_goodputs(&res)).median()
}

fn ablation_trimming() {
    let ndp = median_with(&RqRunOptions::default(), 1);
    let opts = RqRunOptions {
        switch_queue: QueueConfig::DROPTAIL_DEFAULT,
        ..Default::default()
    };
    let droptail = median_with(&opts, 1);
    println!("# ablation trimming: NDP queue median {ndp:.3} vs drop-tail {droptail:.3} Gbps");
}

fn ablation_spray() {
    let spray = median_with(&RqRunOptions::default(), 1);
    let opts = RqRunOptions {
        route: netsim::RouteMode::EcmpFlow,
        ..Default::default()
    };
    let ecmp = median_with(&opts, 1);
    println!("# ablation path selection: spray median {spray:.3} vs per-flow ECMP {ecmp:.3} Gbps");
}

fn ablation_multicast_policy() {
    let any = median_with(&RqRunOptions::default(), 3);
    let mut strict = RqRunOptions::default();
    strict.pr.multicast = MulticastPull::All;
    let all = median_with(&strict, 3);
    let mut detach = strict;
    detach.pr.straggler_lag = Some(64);
    let all_detach = median_with(&detach, 3);
    println!(
        "# ablation multicast policy (3 replicas): Any {any:.3} | All {all:.3} | All+detach {all_detach:.3} Gbps"
    );
}

fn ablation_window() {
    for w in [8u32, 16, 32] {
        let mut opts = RqRunOptions::default();
        opts.pr.initial_window = w;
        let m = median_with(&opts, 1);
        println!("# ablation initial window {w}: median {m:.3} Gbps");
    }
}

fn ablation_incast_trimming() {
    let sc = IncastScenario {
        senders: 8,
        block_bytes: 256 << 10,
        seed: 1,
    };
    let ndp = run_incast_rq(&sc, &Fabric::small(), &RqRunOptions::default());
    let opts = RqRunOptions {
        switch_queue: QueueConfig::DROPTAIL_DEFAULT,
        ..Default::default()
    };
    let droptail = run_incast_rq(&sc, &Fabric::small(), &opts);
    println!("# ablation incast queue: trimming {ndp:.3} vs drop-tail {droptail:.3} Gbps");
}

fn ablation_lt_overhead() {
    // Reception overhead: symbols needed beyond k to decode. The
    // precoded RaptorQ-family code needs ~0-2; plain LT needs Θ(√k·ln²k).
    let k = 100usize;
    let data: Vec<u8> = (0..k * 64).map(|i| i as u8).collect();
    let enc = rq::Encoder::new(&data, 64).unwrap();
    let mut dec = rq::Decoder::new(enc.params());
    let mut needed_rq = 0;
    for i in 0.. {
        let esi = k as u32 + i; // repair-only (worst case)
        dec.push(esi, enc.symbol(esi));
        needed_rq += 1;
        if dec.try_decode().is_ok() {
            break;
        }
    }
    let lt = rq::lt::LtEncoder::new(&data, 64, 7);
    let mut ldec = rq::lt::LtDecoder::new(k, 64, data.len(), 7);
    let mut needed_lt = 0;
    for esi in 0.. {
        ldec.push(esi, lt.symbol(esi));
        needed_lt += 1;
        if ldec.try_decode().is_some() {
            break;
        }
    }
    println!(
        "# ablation code family (k={k}): RQ decoded at k+{} vs plain LT at k+{}",
        needed_rq - k,
        needed_lt - k
    );
}

fn ablation_hotspot() {
    use workload::{run_hotspot_rq, HotspotScenario};
    let sc = HotspotScenario {
        transfers: 6,
        object_bytes: 1 << 20,
        degraded_frac: 0.3,
        degraded_rate_frac: 0.1,
        seed: 11,
    };
    let spray = run_hotspot_rq(&sc, &Fabric::small(), &RqRunOptions::default());
    let opts = RqRunOptions {
        route: netsim::RouteMode::EcmpFlow,
        ..Default::default()
    };
    let ecmp = run_hotspot_rq(&sc, &Fabric::small(), &opts);
    let worst = |r: &Vec<workload::TransferResult>| {
        RankCurve::new(r.iter().map(|t| t.goodput_gbps()).collect())
    };
    let (s, e) = (worst(&spray), worst(&ecmp));
    println!(
        "# ablation hotspots (30% links at 10%): spray worst {:.3} / median {:.3} vs ECMP worst {:.3} / median {:.3} Gbps",
        s.at(s.len() - 1),
        s.median(),
        e.at(e.len() - 1),
        e.median()
    );
}

fn main() {
    ablation_trimming();
    ablation_spray();
    ablation_multicast_policy();
    ablation_window();
    ablation_incast_trimming();
    ablation_lt_overhead();
    ablation_hotspot();
}
