//! Distributed-storage replication (the paper's motivating workload,
//! Figure 1a): a GFS-like client writes 4 MB blocks to three replica
//! servers placed outside its rack, under background traffic.
//!
//! Polyraptor multicasts one copy into the fabric (switches duplicate
//! along sprayed trees); the TCP baseline must push three copies through
//! the client's single access link.
//!
//! ```sh
//! cargo run --release --example distributed_storage
//! ```

use polyraptor_repro::workload::{
    foreground_goodputs, run, Fabric, Pattern, RankCurve, RqRunOptions, StorageScenario,
    TcpRunOptions, Transport,
};

fn main() {
    let fabric = Fabric::small(); // 16-host fat-tree; Fabric::paper() = 250 hosts
    let scenario = StorageScenario {
        sessions: 60,
        object_bytes: 4 << 20,
        replicas: 3,
        lambda_per_host: polyraptor_repro::workload::scenario::PAPER_LAMBDA_PER_HOST,
        background_frac: 0.2,
        pattern: Pattern::Write,
        seed: 7,
        normalize_load: true,
        shared_risk_placement: false,
    };

    println!(
        "replicating 60 x 4MB blocks to 3 replicas on a {}-host fat-tree…",
        16
    );

    let curve = |transport| {
        let rep = run(scenario.build(&fabric, transport));
        RankCurve::new(foreground_goodputs(&rep.flows))
    };
    let rq_curve = curve(Transport::Rq(RqRunOptions::default()));
    let tcp_curve = curve(Transport::Tcp(TcpRunOptions::default()));

    println!("\nper-replica-flow goodput (Gbps):");
    println!("              best   median    worst");
    println!(
        "  Polyraptor {:>6.3} {:>8.3} {:>8.3}",
        rq_curve.at(0),
        rq_curve.median(),
        rq_curve.at(rq_curve.len() - 1)
    );
    println!(
        "  TCP        {:>6.3} {:>8.3} {:>8.3}",
        tcp_curve.at(0),
        tcp_curve.median(),
        tcp_curve.at(tcp_curve.len() - 1)
    );
    println!(
        "\nTCP multi-unicast is capped near uplink/3 = 0.333 Gbps (it sends 3 copies);\n\
         Polyraptor multicasts one copy and keeps every replica near its fair share."
    );
    assert!(rq_curve.median() > tcp_curve.median());
}
