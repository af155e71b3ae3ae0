//! Figure 1b — Multi-source (fetch) goodput rank curves.
//!
//! Clients fetch 4 MB objects that exist on {1, 3} replica servers:
//! Polyraptor pulls statistically unique symbols from all replicas at
//! once; TCP fetches one partition from each replica without
//! coordination. Same fabric and arrival process as Figure 1a.

use polyraptor_bench::{rank_curve_figure, FigOptions};
use workload::{RqRunOptions, StorageScenario, TcpRunOptions, Transport};

fn main() {
    let o = FigOptions::parse(std::env::args().skip(1));
    let (rq, tcp) = (
        Transport::Rq(RqRunOptions::default()),
        Transport::Tcp(TcpRunOptions::default()),
    );
    // (label, senders, transport) — the four curves of the figure.
    let series = [
        ("RQ-1snd", 1, rq),
        ("RQ-3snd", 3, rq),
        ("TCP-1snd", 1, tcp),
        ("TCP-3snd", 3, tcp),
    ];
    rank_curve_figure(
        &o,
        "fig1b",
        "Figure 1b — Multi-source: goodput (Gbps) vs rank of transport session",
        &series.map(|s| s.0),
        |i, seed| {
            let (_, senders, transport) = series[i];
            StorageScenario::fig1b(o.sessions, senders, seed).build(&o.fabric, transport)
        },
    );
}
