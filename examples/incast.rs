//! Incast (Figure 1c): many synchronized senders, one receiver.
//!
//! The classic partition-aggregate pathology: N servers answer a query
//! at the same instant. TCP's losses at the shared switch port plus its
//! 200 ms minimum RTO collapse goodput; Polyraptor's trimming keeps the
//! pull clock alive and any fresh symbol repairs any loss, so goodput
//! stays near line rate — "Incast elimination".
//!
//! ```sh
//! cargo run --release --example incast
//! ```

use polyraptor_repro::workload::{
    run, Fabric, IncastScenario, RqRunOptions, TcpRunOptions, Transport,
};

fn main() {
    let fabric = Fabric::small();
    println!("Incast on a 16-host fat-tree, 256 KB striped across N senders:\n");
    println!("  N senders   Polyraptor (Gbps)   TCP (Gbps)");
    for senders in [2usize, 4, 8, 12] {
        let sc = IncastScenario {
            senders,
            block_bytes: 256 << 10,
            seed: 1,
        };
        let goodput = |transport| run(sc.build(&fabric, transport)).incast_goodput_gbps();
        let rq = goodput(Transport::Rq(RqRunOptions::default()));
        let tcp = goodput(Transport::Tcp(TcpRunOptions::default()));
        println!("  {senders:>9}   {rq:>17.3}   {tcp:>10.3}");
    }
    println!(
        "\nTCP collapses once the synchronized burst overflows the shallow switch\n\
         buffer (tail losses → 200 ms RTO stalls); Polyraptor never drops — the\n\
         overflow is trimmed to headers and every pull fetches a fresh symbol."
    );
}
