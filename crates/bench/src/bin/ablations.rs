//! Ablations over Polyraptor's design choices:
//!
//! * packet trimming vs drop-tail under Polyraptor;
//! * per-packet spraying vs per-flow ECMP;
//! * multicast pull policy: strict aggregation (paper §2 text) vs pull
//!   coalescing (`Any`, the default) — and straggler detach under strict;
//! * initial window sizing;
//! * trimming vs drop-tail under incast, and spraying vs ECMP around
//!   degraded links.
//!
//! Each ablation prints its headline comparison — simulated results,
//! not timings: `cargo run --release --bin ablations`.

use netsim::{QueueConfig, RouteMode};
use polyraptor::MulticastPull;
use polyraptor_bench::run_all;
use workload::{
    foreground_goodputs, Fabric, HotspotScenario, IncastScenario, RankCurve, RqRunOptions, Run,
    RunReport, StorageScenario, Transport,
};

const SESSIONS: usize = 40;

/// Figure 1a's writes on the 16-host fat-tree under Polyraptor.
fn writes(replicas: usize, opts: RqRunOptions) -> Run {
    StorageScenario::fig1a(SESSIONS, replicas, 1).build(&Fabric::small(), Transport::Rq(opts))
}

/// Median foreground goodput of a run.
fn median(r: &RunReport) -> f64 {
    RankCurve::new(foreground_goodputs(&r.flows)).median()
}

fn main() {
    let ndp = RqRunOptions::default();
    let droptail = RqRunOptions {
        switch_queue: QueueConfig::DROPTAIL_DEFAULT,
        ..Default::default()
    };
    let ecmp = RqRunOptions {
        route: RouteMode::EcmpFlow,
        ..Default::default()
    };
    // Multicast pull policy: strict aggregation, then with straggler
    // detach.
    let mut strict = RqRunOptions::default();
    strict.pr.multicast = MulticastPull::All;
    let mut detach = strict;
    detach.pr.straggler_lag = Some(64);
    let window = |w: u32| {
        let mut opts = RqRunOptions::default();
        opts.pr.initial_window = w;
        opts
    };
    let incast = IncastScenario {
        senders: 8,
        block_bytes: 256 << 10,
        seed: 1,
    };
    let hotspot = HotspotScenario {
        transfers: 6,
        object_bytes: 1 << 20,
        degraded_frac: 0.3,
        degraded_rate_frac: 0.1,
        seed: 11,
    };
    let small = Fabric::small();
    let runs = vec![
        writes(1, ndp),
        writes(1, droptail),
        writes(1, ecmp),
        writes(3, ndp),
        writes(3, strict),
        writes(3, detach),
        writes(1, window(8)),
        writes(1, window(16)),
        writes(1, window(32)),
        incast.build(&small, Transport::Rq(ndp)),
        incast.build(&small, Transport::Rq(droptail)),
        hotspot.build(&small, Transport::Rq(ndp)),
        hotspot.build(&small, Transport::Rq(ecmp)),
    ];
    let Ok(
        [ndp, droptail, ecmp, any, all, all_detach, w8, w16, w32, incast_ndp, incast_droptail, spray_hot, ecmp_hot],
    ) = <[RunReport; 13]>::try_from(run_all(runs))
    else {
        unreachable!("one report per run");
    };

    let (ndp, droptail, ecmp) = (median(&ndp), median(&droptail), median(&ecmp));
    println!("# ablation trimming: NDP queue median {ndp:.3} vs drop-tail {droptail:.3} Gbps");
    println!("# ablation path selection: spray median {ndp:.3} vs per-flow ECMP {ecmp:.3} Gbps");
    let (any, all, all_detach) = (median(&any), median(&all), median(&all_detach));
    println!(
        "# ablation multicast policy (3 replicas): Any {any:.3} | All {all:.3} | All+detach {all_detach:.3} Gbps"
    );
    for (w, rep) in [(8, w8), (16, w16), (32, w32)] {
        println!(
            "# ablation initial window {w}: median {:.3} Gbps",
            median(&rep)
        );
    }
    let (ndp, droptail) = (
        incast_ndp.incast_goodput_gbps(),
        incast_droptail.incast_goodput_gbps(),
    );
    println!("# ablation incast queue: trimming {ndp:.3} vs drop-tail {droptail:.3} Gbps");
    let curve = |r: &RunReport| RankCurve::new(r.flows.iter().map(|t| t.goodput_gbps()).collect());
    let (s, e) = (curve(&spray_hot), curve(&ecmp_hot));
    println!(
        "# ablation hotspots (30% links at 10%): spray worst {:.3} / median {:.3} vs ECMP worst {:.3} / median {:.3} Gbps",
        s.at(s.len() - 1),
        s.median(),
        e.at(e.len() - 1),
        e.median()
    );
}
