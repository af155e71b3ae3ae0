//! Run-path pins: one row per scenario and transport, each on the
//! 16-host fat-tree at a fixed seed, pinned to constants recorded from
//! the nine runner bodies as they stood before they shared one run path.
//! Six of those runners are gone; their rows run `run(sc.build(..))`
//! and hash the same scalars the runner returned.
//!
//! A row hashes every flow's `(session, start, finish)` in report order
//! together with the runner's own scalars (incast goodput bits, TCP
//! timeouts, the fault victim and instant, the churn re-target
//! counters), and pins the fabric's four packet fates beside it, and
//! the run's schedule digest (recorded when the digest was added). Every
//! row runs at one shard and at two, with recording off and on, and all
//! four runs must match the row: a shard count or a recorder that moved
//! one simulated nanosecond would show here.
//!
//! Each run must also show that the options reached the simulator (no
//! shard epochs at one shard, some at two; a recording exactly when one
//! was asked for), and the fabric counters must not depend on how the
//! run was executed. The three runners that remain (`run_storage_rq`,
//! `run_storage_tcp`, `run_churn_rq`) are the benchmark's; the storage
//! ones return no report, so they are also run through [`run`], which
//! must agree with them. The storage, incast and hotspot runners
//! returned no fabric counters when the constants were recorded, so
//! their fates were read from the runners' simulators at that commit.

use polyraptor_repro::netsim::FabricStats;
use polyraptor_repro::workload::{
    run, run_churn_rq, run_storage_rq, run_storage_tcp, ChurnScenario, Fabric, FaultScenario,
    HotspotScenario, IncastScenario, Pattern, RqRunOptions, RunReport, StorageScenario,
    TcpRunOptions, TelemetryOptions, TransferResult, Transport,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// How one run of a row is executed.
#[derive(Debug, Clone, Copy)]
struct Variant {
    shards: usize,
    record: bool,
}

impl Variant {
    fn telemetry(self) -> TelemetryOptions {
        if self.record {
            TelemetryOptions::enabled_default()
        } else {
            TelemetryOptions::default()
        }
    }

    fn rq(self) -> RqRunOptions {
        RqRunOptions {
            shards: self.shards,
            telemetry: self.telemetry(),
            ..Default::default()
        }
    }

    fn tcp(self) -> TcpRunOptions {
        TcpRunOptions {
            shards: self.shards,
            telemetry: self.telemetry(),
            ..Default::default()
        }
    }
}

/// What one run of a row showed: the hash of what its runner returned,
/// and the report [`run`] returned for the same run.
struct Observed {
    hash: u64,
    report: RunReport,
}

/// Hash of the flows in report order, then the runner's scalars.
fn fingerprint(flows: &[TransferResult], scalars: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.word(flows.len() as u64);
    for f in flows {
        h.word(u64::from(f.session));
        h.word(f.start.as_nanos());
        h.word(f.finish.as_nanos());
    }
    for &s in scalars {
        h.word(s);
    }
    h.0
}

/// A runner whose public result is not a report, beside the report
/// [`run`] returned for the same run: both must hash alike.
fn beside(public: u64, via_run: u64, report: RunReport) -> Observed {
    assert_eq!(public, via_run, "the public runner and `run` disagree");
    Observed {
        hash: public,
        report,
    }
}

/// A report hashed with no scalars of its own.
fn flows_observed(rep: RunReport) -> Observed {
    Observed {
        hash: fingerprint(&rep.flows, &[]),
        report: rep,
    }
}

/// An incast report hashed as the goodput bits its runner returned.
fn incast_observed(rep: RunReport) -> Observed {
    Observed {
        hash: fingerprint(&[], &[rep.incast_goodput_gbps().to_bits()]),
        report: rep,
    }
}

/// The fault scenario's run under `transport`, hashed with the timeouts,
/// the victim and the failure instant its runner returned.
fn fault_observed(transport: Transport) -> Observed {
    let built = fault().build(&Fabric::small(), transport);
    let victim = fault().victim_core(&built.topo);
    let rep = run(built);
    let fail_at = rep
        .fault_instants
        .first()
        .map_or(u64::MAX, |at| at.as_nanos());
    let scalars = [rep.timeouts, u64::from(victim.0), fail_at];
    Observed {
        hash: fingerprint(&rep.flows, &scalars),
        report: rep,
    }
}

fn churn_observed(rep: RunReport) -> Observed {
    let scalars = [
        rep.timeouts,
        rep.stranded_sessions,
        rep.retargeted_sessions,
        rep.unstranded_sessions,
        rep.retarget_symbols,
        rep.host_failures as u64,
    ];
    Observed {
        hash: fingerprint(&rep.flows, &scalars),
        report: rep,
    }
}

/// Overlapping 3-replica writes (one arrival every ≈ 0.3 ms against
/// ≈ 1 ms per object): NDP trims and drop-tail drops.
fn storage() -> StorageScenario {
    StorageScenario {
        sessions: 12,
        object_bytes: 128 << 10,
        replicas: 3,
        lambda_per_host: 200.0,
        background_frac: 0.2,
        pattern: Pattern::Write,
        seed: 41,
        normalize_load: false,
    }
}

/// Twelve synchronized senders into one client.
fn incast() -> IncastScenario {
    IncastScenario {
        senders: 12,
        block_bytes: 256 << 10,
        seed: 3,
    }
}

/// A core failure mid-write, repaired well after convergence.
fn fault() -> FaultScenario {
    FaultScenario {
        recover_after_frac: Some(30.0),
        ..FaultScenario::fig1_failure(6, 128 << 10, 11)
    }
}

/// All four fault classes, host failures that strand live fetches.
fn churn() -> ChurnScenario {
    ChurnScenario {
        fault_events: 12,
        ..ChurnScenario::ten_event(6, 1 << 20, 2)
    }
}

/// Detected link-down faults on 15 % of the fabric links at t = 0.
fn hotspot() -> HotspotScenario {
    HotspotScenario {
        transfers: 6,
        object_bytes: 256 << 10,
        degraded_frac: 0.15,
        degraded_rate_frac: 0.0,
        seed: 3,
    }
}

/// Run `row` under all four variants and check every run against the
/// pinned hash and fates, and against the schedule digest recorded
/// when the digest was added.
fn check(name: &str, hash: u64, fates: [u64; 4], digest: u64, row: impl Fn(Variant) -> Observed) {
    let mut first: Option<FabricStats> = None;
    for shards in [1, 2] {
        for record in [false, true] {
            let v = Variant { shards, record };
            let Observed { hash: got, report } = row(v);
            assert_eq!(
                got, hash,
                "{name} {v:?}: hash {got:#018x} differs from the pinned runner's"
            );
            let stats = report.fabric;
            let got = [
                stats.delivered,
                stats.trimmed,
                stats.dropped,
                stats.lost_to_fault,
            ];
            assert_eq!(got, fates, "{name} {v:?}: packet fates");
            let got = stats.schedule_digest;
            assert_eq!(got, digest, "{name} {v:?}: schedule digest {got:#018x}");
            assert_eq!(stats.shard_epochs == 0, shards == 1, "{name} {v:?}: shards");
            match &report.telemetry {
                Some(t) => assert!(!t.recorder.buckets().is_empty(), "{name} {v:?}: buckets"),
                None => assert!(!record, "{name} {v:?}: no recording came back"),
            }
            assert_eq!(
                report.telemetry.is_some(),
                record,
                "{name} {v:?}: recording"
            );
            // Every counter is the same at one shard, recorded or not;
            // at two only the shard machinery's own counters may move.
            let first = *first.get_or_insert(stats);
            if shards == 1 {
                assert_eq!(first, stats, "{name} {v:?}: recording moved a counter");
            }
            assert_eq!(
                first.shard_invariant(),
                stats.shard_invariant(),
                "{name} {v:?}: shard-invariant counters"
            );
        }
    }
}

#[test]
fn storage_rq() {
    check(
        "storage_rq",
        0x6691_CF97_9FE0_BF3D,
        [8441, 1232, 0, 0],
        0x9DF9_7978_23E5_0308,
        |v| {
            let rep = run(storage().build(&Fabric::small(), Transport::Rq(v.rq())));
            let flows = run_storage_rq(&storage(), &Fabric::small(), &v.rq());
            beside(fingerprint(&flows, &[]), fingerprint(&rep.flows, &[]), rep)
        },
    );
}

#[test]
fn storage_tcp() {
    check(
        "storage_tcp",
        0x5785_8B46_E9E7_2819,
        [5565, 0, 71, 0],
        0x3C33_9E49_EE45_7AFD,
        |v| {
            let rep = run(storage().build(&Fabric::small(), Transport::Tcp(v.tcp())));
            let flows = run_storage_tcp(&storage(), &Fabric::small(), &v.tcp());
            beside(fingerprint(&flows, &[]), fingerprint(&rep.flows, &[]), rep)
        },
    );
}

#[test]
fn incast_rq() {
    check(
        "incast_rq",
        0x3DE5_D1F0_37B6_34F0,
        [414, 6, 0, 0],
        0xA721_B17B_399E_938F,
        |v| incast_observed(run(incast().build(&Fabric::small(), Transport::Rq(v.rq())))),
    );
}

#[test]
fn incast_tcp() {
    check(
        "incast_tcp",
        0x521D_9062_4943_035E,
        [408, 0, 34, 0],
        0xA0EC_030D_6FDC_35D3,
        |v| {
            incast_observed(run(
                incast().build(&Fabric::small(), Transport::Tcp(v.tcp()))
            ))
        },
    );
}

#[test]
fn fault_rq() {
    check(
        "fault_rq",
        0xA64F_6C4A_EA60_A5E4,
        [3433, 0, 0, 301],
        0x55DA_EF17_7C87_4059,
        |v| fault_observed(Transport::Rq(v.rq())),
    );
}

#[test]
fn fault_tcp() {
    check(
        "fault_tcp",
        0xC549_D2A6_5B8A_65EB,
        [3342, 0, 0, 27],
        0xB65A_7865_6DAE_4CB2,
        |v| fault_observed(Transport::Tcp(v.tcp())),
    );
}

#[test]
fn churn_rq() {
    check(
        "churn_rq",
        0x96FA_97BF_2CF2_4E0E,
        [11695, 1093, 0, 279],
        0xDFB2_EBB1_6B98_C965,
        |v| churn_observed(run_churn_rq(&churn(), &Fabric::small(), &v.rq())),
    );
}

#[test]
fn churn_tcp() {
    check(
        "churn_tcp",
        0x0B9B_EAD6_F9E9_9B69,
        [8776, 0, 0, 23],
        0x6D65_E127_AD19_5A77,
        |v| {
            let rep = run(churn().build(&Fabric::small(), Transport::Tcp(v.tcp())));
            churn_observed(rep.into_ops(churn().object_bytes))
        },
    );
}

#[test]
fn hotspot_rq() {
    check(
        "hotspot_rq",
        0xF0A1_6BB8_FC75_7BEE,
        [2751, 242, 0, 0],
        0xF3D9_CB57_B95B_2BD6,
        |v| flows_observed(run(hotspot().build(&Fabric::small(), Transport::Rq(v.rq())))),
    );
}
