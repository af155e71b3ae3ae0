//! The determinism contract, drawn at random: a seeded run comes out
//! the same at 1, 2 and 4 shards, with recording off or on.
//!
//! Each draw picks a fabric, a routing policy, a scenario, a transport
//! (Polyraptor with the counting or the real oracle, or TCP) and seeds,
//! and runs it through the public scenario builders and `workload::run`
//! at all six settings. The draws come from the in-tree `proptest`
//! shim's generator, which does not shrink: a failing draw is printed
//! whole. `tests/event_schedule.rs`, `tests/real_oracle_schedule.rs`
//! and `tests/run_paths.rs` pin history (constants recorded from older
//! loops, and each run's schedule digest); this file pins consistency.

use polyraptor_repro::netsim::{FaultMix, RoutingPolicy};
use polyraptor_repro::polyraptor::{OracleMode, PrConfig};
use polyraptor_repro::workload::{
    run, ChurnScenario, Fabric, FaultScenario, HotspotScenario, IncastScenario, Pattern,
    RqRunOptions, Run, RunReport, StorageScenario, TcpRunOptions, TelemetryOptions, Transport,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Draws per test run, each executed at all six settings.
const DRAWS: u32 = 40;

/// How long one draw's runs may take before the draw fails: the
/// slowest draw takes 0.4 s in a debug build, so 20 s is 50 times that.
const DRAW_TIMEOUT: Duration = Duration::from_secs(20);

/// One drawn experiment.
#[derive(Debug, Clone, Copy)]
struct Draw {
    fabric: Fabric,
    policy: RoutingPolicy,
    scenario: Scenario,
    stack: Stack,
}

#[derive(Debug, Clone, Copy)]
enum Scenario {
    Storage(StorageScenario),
    Incast(IncastScenario),
    Fault(FaultScenario),
    Churn(ChurnScenario),
    Hotspot(HotspotScenario),
}

impl Scenario {
    fn build(&self, fabric: &Fabric, transport: Transport) -> Run {
        match self {
            Self::Storage(sc) => sc.build(fabric, transport),
            Self::Incast(sc) => sc.build(fabric, transport),
            Self::Fault(sc) => sc.build(fabric, transport),
            Self::Churn(sc) => sc.build(fabric, transport),
            Self::Hotspot(sc) => sc.build(fabric, transport),
        }
    }
}

/// The transport, and Polyraptor's oracle.
#[derive(Debug, Clone, Copy)]
enum Stack {
    Rq(OracleMode),
    Tcp,
}

/// Objects of 8–64 KiB: small enough for the real oracle in a debug
/// build.
fn object_bytes() -> impl Strategy<Value = usize> {
    (8usize..=64).prop_map(|kib| kib << 10)
}

/// Overlapping storage sessions (one arrival every ≈ 0.3 ms on 16
/// hosts), so queues build and tie-breaks decide the schedule.
fn storage(pattern: Pattern) -> impl Strategy<Value = Scenario> {
    (
        (1usize..=12, object_bytes(), 1usize..=3),
        (0u32..=3, any::<u64>()),
    )
        .prop_map(move |((sessions, object_bytes, replicas), (bg, seed))| {
            Scenario::Storage(StorageScenario {
                sessions,
                object_bytes,
                replicas,
                lambda_per_host: 200.0,
                background_frac: f64::from(bg) / 10.0,
                pattern,
                seed,
                normalize_load: false,
            })
        })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let incast =
        (4usize..=12, object_bytes(), any::<u64>()).prop_map(|(senders, block_bytes, seed)| {
            Scenario::Incast(IncastScenario {
                senders,
                block_bytes,
                seed,
            })
        });
    let fault = (1usize..=6, object_bytes(), any::<bool>(), any::<u64>()).prop_map(
        |(sessions, bytes, repair, seed)| {
            Scenario::Fault(FaultScenario {
                recover_after_frac: repair.then_some(30.0),
                ..FaultScenario::fig1_failure(sessions, bytes, seed)
            })
        },
    );
    let no_host = FaultMix {
        host: 0.0,
        ..FaultMix::uniform()
    };
    let mix = prop_oneof![
        Just(FaultMix::uniform()),
        Just(FaultMix::links_only()),
        Just(no_host)
    ];
    let churn = (
        (2usize..=6, object_bytes(), 2usize..=3),
        (4usize..=10, mix, any::<u64>()),
    )
        .prop_map(|((sessions, bytes, replicas), (events, mix, seed))| {
            Scenario::Churn(ChurnScenario {
                replicas,
                fault_events: events,
                mix,
                ..ChurnScenario::ten_event(sessions, bytes, seed)
            })
        });
    // High enough that even the leaf–spine's eight fabric links lose one
    // (`build` refuses a plan that degrades none).
    let hotspot = (
        1usize..=8,
        object_bytes(),
        prop_oneof![Just(0.3), Just(0.5)],
        prop_oneof![Just(0.0), Just(0.1)],
        any::<u64>(),
    )
        .prop_map(
            |(transfers, object_bytes, degraded_frac, degraded_rate_frac, seed)| {
                Scenario::Hotspot(HotspotScenario {
                    transfers,
                    object_bytes,
                    degraded_frac,
                    degraded_rate_frac,
                    seed,
                })
            },
        );
    prop_oneof![
        storage(Pattern::Write),
        storage(Pattern::Read),
        incast,
        fault,
        churn,
        hotspot
    ]
}

fn draw() -> impl Strategy<Value = Draw> {
    let policy = prop_oneof![
        Just(RoutingPolicy::minimal()),
        (2usize..=3, any::<u64>()).prop_map(|(n, seed)| RoutingPolicy::layered(n, seed))
    ];
    let stack = prop_oneof![
        Just(Stack::Rq(OracleMode::Counting)),
        Just(Stack::Rq(OracleMode::Real)),
        Just(Stack::Tcp)
    ];
    (0usize..3, policy, scenario(), stack).prop_map(|(f, policy, scenario, stack)| {
        // Jellyfish has no transit switch to fail: a core failure takes
        // the fat-tree or the leaf–spine instead.
        let f = if matches!(scenario, Scenario::Fault(_)) {
            f % 2
        } else {
            f
        };
        let fabrics = [
            Fabric::small(),
            Fabric::small_leaf_spine(),
            Fabric::small_jellyfish(),
        ];
        Draw {
            fabric: fabrics[f],
            policy,
            scenario,
            stack,
        }
    })
}

impl Draw {
    /// The draw's run at `shards`, recorded or not.
    fn run(&self, shards: usize, record: bool) -> RunReport {
        let telemetry = TelemetryOptions { enabled: record };
        let transport = match self.stack {
            Stack::Rq(oracle) => Transport::Rq(RqRunOptions {
                pr: PrConfig {
                    oracle,
                    ..PrConfig::paper_default()
                },
                policy: self.policy,
                telemetry,
                shards,
                ..Default::default()
            }),
            Stack::Tcp => Transport::Tcp(TcpRunOptions {
                policy: self.policy,
                telemetry,
                shards,
                ..Default::default()
            }),
        };
        run(self.scenario.build(&self.fabric, transport))
    }
}

/// Everything a run reports about the simulated experiment: flows in
/// report order, then the transport and fault counters and the fault
/// instants.
fn outcome(rep: &RunReport) -> impl PartialEq + Debug {
    let flows: Vec<_> = rep
        .flows
        .iter()
        .map(|f| (f.session, f.start.as_nanos(), f.finish.as_nanos(), f.bytes))
        .collect();
    let counters = [
        rep.timeouts,
        rep.stranded_sessions,
        rep.retargeted_sessions,
        rep.unstranded_sessions,
        rep.retarget_symbols,
        rep.host_failures as u64,
    ];
    (flows, counters, rep.fault_instants.clone())
}

/// Run `draw` at one shard unrecorded, then at all six settings (that
/// one again included), and check each run against the first: the same
/// flows, counters and fault instants; the same fabric counters at one shard,
/// and the same shard-invariant ones at any count (among them the
/// schedule digest, so every executed event, not only its outcome, is
/// compared); the shard machinery
/// working exactly when there is more than one shard; a recording
/// exactly when one was asked for, exporting the same series and trace
/// at every shard count.
fn check(draw: &Draw) {
    let base = draw.run(1, false);
    let base_outcome = outcome(&base);
    let mut recorded = None;
    for shards in [1usize, 2, 4] {
        for record in [false, true] {
            let at = format!("{shards} shards, recording {record}");
            let rep = draw.run(shards, record);
            assert_eq!(outcome(&rep), base_outcome, "{at}: outcome");
            let stats = rep.fabric;
            if shards == 1 {
                assert_eq!(stats, base.fabric, "{at}: fabric counters");
            }
            assert_eq!(
                stats.shard_invariant(),
                base.fabric.shard_invariant(),
                "{at}: shard-invariant fabric counters"
            );
            assert_eq!(stats.shard_epochs > 0, shards > 1, "{at}: epochs");
            assert_eq!(
                stats.cross_shard_packets > 0,
                shards > 1,
                "{at}: cross-shard packets"
            );
            assert_eq!(rep.telemetry.is_some(), record, "{at}: recording");
            if let Some(t) = &rep.telemetry {
                // The trace's instants carry every annotation, anomalies included.
                let got = (t.fabric_series_csv(), t.port_series_csv(), t.trace_json());
                let want = recorded.get_or_insert_with(|| got.clone());
                assert!(*want == got, "{at}: exports differ from one shard's");
            }
        }
    }
}

/// The classes a draw falls in: fabric, policy, scenario, transport.
/// Together the draws must fall in all 16.
fn classes(d: &Draw) -> [&'static str; 4] {
    let fabric = match d.fabric {
        Fabric::FatTree { .. } => "fat-tree",
        Fabric::LeafSpine { .. } => "leaf-spine",
        Fabric::Jellyfish { .. } => "jellyfish",
    };
    let policy = if d.policy == RoutingPolicy::minimal() {
        "minimal"
    } else {
        "layered"
    };
    let scenario = match d.scenario {
        Scenario::Storage(sc) if sc.pattern == Pattern::Write => "write",
        Scenario::Storage(_) => "read",
        Scenario::Incast(_) => "incast",
        Scenario::Fault(_) => "fault",
        Scenario::Churn(sc) => {
            let topo = d.fabric.build();
            let plan = sc.plan(&topo, &sc.storage_sessions(&topo));
            if plan.host_failures(&topo).is_empty() {
                "churn"
            } else {
                "churn failing hosts"
            }
        }
        Scenario::Hotspot(sc) if sc.degraded_rate_frac == 0.0 => "link-down hotspot",
        Scenario::Hotspot(_) => "rate-cut hotspot",
    };
    let stack = match d.stack {
        Stack::Rq(OracleMode::Counting) => "counting",
        Stack::Rq(OracleMode::Real) => "real",
        Stack::Tcp => "tcp",
    };
    [fabric, policy, scenario, stack]
}

#[test]
fn every_draw_runs_alike_at_every_shard_count_recorded_or_not() {
    let draws: Vec<Draw> = (0..DRAWS)
        .map(|case| draw().generate(&mut TestRng::for_case("identity", case)))
        .collect();
    let covered: BTreeSet<_> = draws.iter().flat_map(classes).collect();
    assert_eq!(covered.len(), 16, "the draws miss a class: {covered:?}");
    for (case, d) in (0..).zip(&draws) {
        // Captured, and shown only when the case fails: the shim does
        // not shrink, so the draw is the reproduction.
        println!("identity case {case}: {d:?}");
        // On a watchdog thread, so a draw whose run never ends fails
        // with its case number instead of hanging the binary.
        let (d, (done, finished)) = (*d, mpsc::channel());
        let worker = thread::spawn(move || {
            check(&d);
            let _ = done.send(());
        });
        // A panicking draw disconnects the channel: join it to re-raise.
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(DRAW_TIMEOUT) {
            panic!(
                "identity case {case} did not finish in {} s",
                DRAW_TIMEOUT.as_secs()
            );
        }
        worker.join().unwrap_or_else(|e| panic::resume_unwind(e));
    }
}

/// A count behind the decision that sharding stays (ROADMAP item 15):
/// the benchmark's `churn_dense_k10` scenario at seed 1 and 4 shards
/// has a speed-up ceiling of 6 699 977 ÷ 2 223 483 = 3.013 — the work
/// divides; what a 4-shard run loses, it loses to synchronisation. Its
/// schedule digest is pinned beside the event count.
/// Release mode (6.7 M events):
/// `cargo test --release --test identity -- --ignored`.
#[test]
#[ignore = "6.7 M events: run in release mode"]
fn churn_dense_k10_speedup_ceiling_at_four_shards_is_3_013() {
    let sc = ChurnScenario {
        fault_events: 40,
        mix: FaultMix {
            link: 1.0,
            switch: 1.0,
            host: 0.0,
            flap: 1.0,
        },
        ..ChurnScenario::ten_event(600, 1 << 20, 1)
    };
    let opts = RqRunOptions {
        shards: 4,
        ..Default::default()
    };
    let stats = run(sc.build(&Fabric::paper(), Transport::Rq(opts))).fabric;
    assert_eq!(stats.events, 6_699_977);
    assert_eq!(stats.schedule_digest, 0x45B6_690E_ED7B_D80E);
    assert_eq!(stats.shard_critical_events, 2_223_483);
}
