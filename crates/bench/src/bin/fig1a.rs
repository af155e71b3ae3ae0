//! Figure 1a — Multicast (replication write) goodput rank curves.
//!
//! Reproduces: 250-host fat-tree, 4 MB objects, Poisson λ = 2560/s,
//! 20 % background, permutation traffic matrix; four configurations:
//! {1, 3} replicas × {Polyraptor (RQ), TCP multi-unicast}.
//!
//! Run `cargo run --release -p polyraptor_bench --bin fig1a -- --full`
//! for the paper's exact scale, or with no flags for a faster default.

use polyraptor_bench::{rank_curve_figure, FigOptions};
use workload::{RqRunOptions, StorageScenario, TcpRunOptions, Transport};

fn main() {
    let o = FigOptions::parse(std::env::args().skip(1));
    let (rq, tcp) = (
        Transport::Rq(RqRunOptions::default()),
        Transport::Tcp(TcpRunOptions::default()),
    );
    // (label, replicas, transport) — the four curves of the figure.
    let series = [
        ("RQ-1rep", 1, rq),
        ("RQ-3rep", 3, rq),
        ("TCP-1rep", 1, tcp),
        ("TCP-3rep", 3, tcp),
    ];
    rank_curve_figure(
        &o,
        "fig1a",
        "Figure 1a — Multicast: goodput (Gbps) vs rank of transport session",
        &series.map(|s| s.0),
        |i, seed| {
            let (_, replicas, transport) = series[i];
            StorageScenario::fig1a(o.sessions, replicas, seed).build(&o.fabric, transport)
        },
    );
}
