//! Integration test for the fabric-dynamics subsystem: a deterministic
//! mid-transfer core-switch failure on the paper's 250-host fat-tree.
//!
//! Polyraptor must complete every session (reroute + coded repair,
//! zero timeouts) while the TCP baseline shows timeout-driven tail
//! inflation. Mirrors `examples/fabric_faults.rs` at a test-friendly
//! object size.

use polyraptor_repro::workload::{
    op_results, run, Fabric, FaultScenario, RqRunOptions, TcpRunOptions, Transport,
};

const SESSIONS: usize = 6;
const OBJECT_BYTES: usize = 256 << 10;

fn scenario() -> FaultScenario {
    FaultScenario::fig1_failure(SESSIONS, OBJECT_BYTES, 42)
}

fn paper_fabric() -> Fabric {
    let fabric = Fabric::paper();
    assert_eq!(fabric.host_count(), 250, "the paper's 250-server fabric");
    fabric
}

#[test]
fn core_failure_polyraptor_completes_while_tcp_tail_inflates() {
    let fabric = paper_fabric();
    let sc = scenario();

    let rq = run(sc.build(&fabric, Transport::Rq(RqRunOptions::default())));
    // The failure really struck mid-transfer...
    let fail_at = *rq
        .fault_instants
        .first()
        .expect("faulted run has a failure instant");
    assert!(
        rq.in_flight_at(fail_at) >= 1,
        "failure must catch at least one session mid-transfer"
    );
    // ...really killed traffic and really rerouted...
    assert!(rq.fabric.lost_to_fault > 0, "core death must cost packets");
    assert_eq!(rq.fabric.reroutes, 1);
    assert!(rq.fabric.trees_repaired > 0, "multicast trees repaired");
    // ...and every session still completed at every replica (the
    // collector asserts per-endpoint completion; spot-check the shape).
    assert_eq!(rq.flows.len(), SESSIONS * 3, "one flow per replica");
    assert_eq!(op_results(&rq.flows, OBJECT_BYTES).len(), SESSIONS);
    assert_eq!(rq.timeouts, 0, "coded repair needs no timeouts");
    // Batched sweep recovery: the post-fault completion tail is bounded
    // by the 25 ms control-plane convergence window plus a near-healthy
    // transfer remainder — not paced by the 1 ms keep-alive sweep. A
    // one-nudge-per-sweep recovery needed ~147 ms at this scale (~450 ms
    // at the paper's 1 MB objects); 60 ms leaves slack without ever
    // letting a sweep-paced tail sneak back in.
    let recovery = rq.recovery().expect("failure caught flows in flight");
    assert!(
        recovery.max_ns < 60_000_000,
        "post-fault tail must not be sweep-paced (got {:.1} ms)",
        recovery.max_ns as f64 / 1e6
    );

    let tcp_opts = Transport::Tcp(TcpRunOptions::default());
    let tcp = run(sc.build(&fabric, tcp_opts));
    let tcp_healthy = run(sc.healthy().build(&fabric, tcp_opts));
    assert!(
        tcp.timeouts > tcp_healthy.timeouts,
        "blackholed ECMP-pinned flows must eat retransmission timeouts \
         ({} faulted vs {} healthy)",
        tcp.timeouts,
        tcp_healthy.timeouts
    );
    // Timeout-driven tail inflation: the TCP makespan grows by RTO-floor
    // scale (the 200 ms timer arms at the last pre-failure ack, so the
    // net inflation lands slightly under it) — orders of magnitude above
    // any congestion effect — while Polyraptor's recovery is pull-paced,
    // not timeout-paced.
    // Saturating: if a regression ever made the faulted run finish no
    // slower than healthy, this must read 0 and fail below, not wrap.
    let inflation_ns = tcp
        .makespan()
        .as_nanos()
        .saturating_sub(tcp_healthy.makespan().as_nanos());
    assert!(
        inflation_ns >= 150_000_000,
        "TCP tail must inflate at RTO-floor scale (got {:.1} ms)",
        inflation_ns as f64 / 1e6
    );
    assert!(
        tcp.makespan() > rq.makespan(),
        "Polyraptor must beat the timeout-bound baseline through the failure"
    );
}
