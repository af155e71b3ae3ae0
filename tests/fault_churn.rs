//! Integration soak for the fault-churn subsystem: a seeded Poisson
//! fault process (links, sub-convergence-window flaps, transit
//! switches, and host failures) sustained over a replicated storage
//! fetch run at test scale.
//!
//! The contract under churn-with-repair is total: every fetch completes
//! with zero timeouts (Polyraptor's recovery is pull-paced — the sweep
//! re-pulls written-off loss, and a dead replica's remaining share is
//! re-targeted at a survivor), flapping links coalesce instead of
//! paying full route recomputes, and restorations repair incrementally.
//! That the run is the same at every shard count, recorded or not, is
//! `tests/identity.rs`.

use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use polyraptor_repro::netsim::{FaultAction, FaultPlan};
use polyraptor_repro::workload::{
    run, ChurnScenario, Fabric, RqRunOptions, RunReport, StorageScenario, Transport,
};

/// The churn scenario's run under Polyraptor at its defaults: one
/// fetch record per session.
fn rq(sc: &ChurnScenario, fabric: &Fabric) -> RunReport {
    run(sc.build(fabric, Transport::Rq(RqRunOptions::default())))
}

/// Seed 2 at this scale draws all four event classes and strands live
/// sessions (verified by the plan assertions below, so a regression in
/// the generator can't silently hollow the test out).
fn scenario() -> ChurnScenario {
    let mut sc = ChurnScenario::ten_event(6, 2 << 20, 2);
    sc.fault_events = 12;
    sc
}

#[test]
fn churn_soak_completes_everything_and_retargets_all_stranded() {
    let sc = scenario();
    let fabric = Fabric::small();

    // The compiled plan really exercises the advertised mix: >= 10
    // events including >= 1 host failure and >= 1 flap.
    let topo = fabric.build();
    let sessions = sc.storage_sessions(&topo);
    let plan = sc.plan(&topo, &sessions);
    let downs = plan
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                FaultAction::LinkDown { .. } | FaultAction::SwitchDown { .. }
            )
        })
        .count();
    assert!(downs >= 10, "soak needs >= 10 fault events (got {downs})");
    assert!(
        !plan.host_failures(&topo).is_empty(),
        "soak needs a host failure"
    );

    let rep = rq(&sc, &fabric);
    // Every fetch completed (the collector asserts per-endpoint
    // completion; the count pins the shape) with zero timeouts.
    assert_eq!(rep.flows.len(), 6, "one completed fetch per session");
    assert_eq!(rep.timeouts, 0, "recovery is pull-paced, never timer-paced");
    // Host failures stranded live sessions, and every stranding was
    // re-targeted at a surviving replica.
    assert!(rep.host_failures >= 1);
    assert!(
        rep.stranded_sessions >= 1,
        "a host failure must strand a live fetch at this scale"
    );
    assert_eq!(
        rep.retargeted_sessions, rep.stranded_sessions,
        "every stranded session must be re-targeted"
    );
    assert!(
        rep.retarget_symbols > 0,
        "re-target must move the dead replica's share to survivors"
    );
    // Revivals can only undo strandings that actually happened.
    assert!(
        rep.unstranded_sessions <= rep.stranded_sessions,
        "un-strand count bounded by strandings"
    );
    // The fabric half of the story: flaps coalesced into no-op deltas.
    // (Bunched repairs at this event rate legitimately exceed the
    // mass-delta threshold, so restore-repair is asserted separately by
    // `links_only_churn_never_pays_a_full_recompute` below, where the
    // repairs are spaced.)
    assert!(
        rep.fabric.flaps_coalesced >= 1,
        "sub-convergence-window flaps must coalesce"
    );
    assert!(rep.fabric.lost_to_fault > 0, "churn must cost packets");
    // Recovery is bounded: every fetch in flight at a fault instant
    // still finished (completion is asserted above; the percentiles
    // exist and are ordered).
    let rec = rep.recovery().expect("faults struck mid-fetch");
    assert!(rec.p50_ns <= rec.p99_ns && rec.p99_ns <= rec.max_ns);

    // A different seed produces a different run (the soak is not
    // accidentally fault-free or schedule-independent).
    let other = rq(&ChurnScenario { seed: 3, ..sc }, &fabric);
    let finishes = |r: &RunReport| r.flows.iter().map(|f| f.finish).collect::<Vec<_>>();
    assert_ne!(finishes(&rep), finishes(&other));
}

#[test]
fn links_only_churn_never_pays_a_full_recompute() {
    // A churn of link failures and flaps with spaced repairs is the
    // control-plane acceptance case: every flap coalesces to a no-op
    // delta, every restoration takes the bounded restore-repair path,
    // and *no* reroute falls back to a full recomputation — while every
    // fetch still completes.
    let mut sc = ChurnScenario::ten_event(6, 2 << 20, 0);
    sc.fault_events = 10;
    sc.fault_rate_per_sec = 120.0;
    sc.repair_delay_ns = 12_000_000;
    sc.mix = polyraptor_repro::netsim::FaultMix::links_only();
    let rep = rq(&sc, &Fabric::small());
    assert_eq!(rep.flows.len(), 6, "every fetch completes");
    assert!(
        rep.fabric.flaps_coalesced >= 1,
        "flaps must coalesce (got {})",
        rep.fabric.flaps_coalesced
    );
    assert!(
        rep.fabric.restores_incremental >= 1,
        "spaced restorations must take restore repair"
    );
    assert_eq!(
        rep.fabric.reroutes, rep.fabric.reroutes_incremental,
        "links-only churn must never fall back to a full route recompute"
    );
}

#[test]
fn host_failure_never_pulls_a_session_before_its_start_timer() {
    // 600 fetches over 250 hosts: clients hold several sessions each,
    // so a host-failure notice reaches clients that also hold sessions
    // on the dead replica which have not started yet. Those must wait
    // for their start timer — re-targeting them on the spot used to
    // finish them before they began.
    let sc = ChurnScenario::ten_event(600, 1 << 20, 1);
    let rep = rq(&sc, &Fabric::paper());
    assert!(rep.host_failures >= 1 && rep.stranded_sessions >= 1);
    assert_eq!(rep.flows.len(), 600);
    for f in &rep.flows {
        assert!(
            f.finish > f.start,
            "session {} finished at {:?}, before its start {:?}",
            f.session,
            f.finish,
            f.start
        );
    }
}

#[test]
fn revived_write_replica_rejoins_its_tree() {
    // A 3-replica multicast write whose second replica dies 300 µs
    // into the session and revives 300 µs later. The dead replica
    // drops out of the write's tree; the reroute after the revival
    // must take it back, or its receiver waits on keep-alive sweeps
    // forever. The run goes on a watchdog thread so that regression
    // fails the test instead of hanging it.
    let flows = |shards| {
        let (done, finished) = mpsc::channel();
        let worker = thread::spawn(move || {
            let sc = StorageScenario {
                object_bytes: 256 << 10,
                background_frac: 0.0,
                ..StorageScenario::fig1a(1, 3, 7)
            };
            let opts = RqRunOptions {
                shards,
                ..RqRunOptions::default()
            };
            let mut write = sc.build(&Fabric::small(), Transport::Rq(opts));
            let (victim, start) = (write.sessions[0].replicas[1], write.sessions[0].start);
            write.faults = FaultPlan::new()
                .host_down(start + 300_000, victim)
                .host_up(start + 600_000, victim);
            write.reroute_delay_ns = 50_000;
            let flows = run(write).flows;
            let _ = done.send(());
            flows
        });
        // A panicking run disconnects the channel: join it to re-raise.
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("the write at {shards} shard(s) never finished");
        }
        worker.join().unwrap_or_else(|e| panic::resume_unwind(e))
    };
    let one = flows(1);
    assert_eq!(one.len(), 3, "every replica finishes: {one:?}");
    let two = flows(2);
    assert_eq!(
        format!("{one:?}"),
        format!("{two:?}"),
        "the same write at 1 and 2 shards"
    );
}
