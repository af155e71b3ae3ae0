//! The benchmark's workloads: what each one runs, the untraced public
//! runner call, and the checks on what a run returns.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::{FabricStats, FaultMix, RoutingPolicy, Topology};
use polyraptor::PrConfig;
use workload::{
    run_churn_rq, run_storage_rq, run_storage_tcp, ChurnScenario, Fabric, LogicalSession,
    RqRunOptions, StorageScenario, TcpRunOptions, TransferResult,
};

use crate::stats::samples_beyond;

/// Which public runner a workload calls, with that runner's scenario.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// `run_storage_rq`.
    StorageRq(StorageScenario, PrConfig),
    /// `run_storage_tcp`.
    StorageTcp(StorageScenario),
    /// `run_churn_rq`.
    ChurnRq(ChurnScenario, PrConfig),
}

/// One benchmark workload: a runner, its inputs, and the fabric.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub runner: Runner,
    pub fabric: Fabric,
    pub policy: RoutingPolicy,
    /// Wall time of one scenario on the 2-core box the benchmark was
    /// sized on, rounded up; `--seconds` ÷ this is the panel size.
    pub nominal_s: f64,
}

/// Workload names, in the order a full run visits them.
pub const NAMES: [&str; 5] = [
    "fig1a_write_k10",
    "tcp_write_k10",
    "fig1b_read_real_k10",
    "churn_jelly5000_l2",
    "churn_dense_k10",
];

/// Foreground flows every full-scale workload must produce, so that at
/// least ten samples lie beyond the reported 95th percentile.
pub const MIN_FOREGROUND_FLOWS: usize = 200;

/// The same Jellyfish shape wired from another seed.
fn rewired(fabric: Fabric, seed: u64) -> Fabric {
    match fabric {
        Fabric::Jellyfish {
            switches,
            net_degree,
            hosts_per_switch,
            rate_bps,
            prop_ns,
            ..
        } => Fabric::Jellyfish {
            switches,
            net_degree,
            hosts_per_switch,
            rate_bps,
            prop_ns,
            seed,
        },
        other => other,
    }
}

/// Fault classes of the two churn workloads. Neither draws host
/// failures: which replicas die decides the whole completion-time tail
/// of a run, so across seeds the simulated metrics spread by 30–50 %,
/// and `PolyraptorAgent::on_host_failure` re-targets sessions that have
/// not started yet, which finish before their start time when one
/// client holds several sessions (see README.md, "What the benchmark
/// found"). The dense workload draws 40 events, not 20: with fewer, the
/// share of fetches a fault delays hovers around 5 % and the 95th
/// percentile flips between the delayed and the undelayed mode from
/// seed to seed.
const LINKS: FaultMix = FaultMix {
    link: 1.0,
    switch: 0.0,
    host: 0.0,
    flap: 0.0,
};
const FABRIC: FaultMix = FaultMix {
    link: 1.0,
    switch: 1.0,
    host: 0.0,
    flap: 1.0,
};

fn churn(
    sessions: usize,
    object_bytes: usize,
    fault_events: usize,
    mix: FaultMix,
    seed: u64,
) -> ChurnScenario {
    ChurnScenario {
        fault_events,
        mix,
        ..ChurnScenario::ten_event(sessions, object_bytes, seed)
    }
}

/// Build the named workload from the seed. `smoke` shrinks it to a
/// 16-host fabric and tens of sessions (unit tests, `--smoke`).
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let k10 = if smoke {
        Fabric::small()
    } else {
        Fabric::paper()
    };
    let minimal = RoutingPolicy::minimal();
    // Fig. 1a writes; `tcp_write_k10` runs the identical scenario.
    let writes = if smoke {
        StorageScenario {
            object_bytes: 256 << 10,
            ..StorageScenario::fig1a(30, 3, seed)
        }
    } else {
        StorageScenario::fig1a(100, 3, seed)
    };
    let (runner, fabric, policy, nominal_s) = match name {
        "fig1a_write_k10" => (
            Runner::StorageRq(writes, PrConfig::paper_default()),
            k10,
            minimal,
            3.6,
        ),
        "tcp_write_k10" => (Runner::StorageTcp(writes), k10, minimal, 3.6),
        "fig1b_read_real_k10" => {
            let sc = StorageScenario {
                object_bytes: if smoke { 64 << 10 } else { 512 << 10 },
                ..StorageScenario::fig1b(if smoke { 20 } else { 260 }, 3, seed)
            };
            (
                Runner::StorageRq(sc, PrConfig::real_oracle()),
                k10,
                minimal,
                3.6,
            )
        }
        "churn_jelly5000_l2" => {
            let (sc, fabric) = if smoke {
                (
                    churn(12, 128 << 10, 6, LINKS, seed),
                    Fabric::small_jellyfish(),
                )
            } else {
                (
                    churn(200, 1 << 20, 6, LINKS, seed),
                    Fabric::large_jellyfish(),
                )
            };
            (
                Runner::ChurnRq(sc, PrConfig::paper_default()),
                rewired(fabric, seed),
                RoutingPolicy::layered(2, 7),
                6.5,
            )
        }
        "churn_dense_k10" => {
            let sc = if smoke {
                churn(12, 128 << 10, 6, FABRIC, seed)
            } else {
                churn(600, 1 << 20, 40, FABRIC, seed)
            };
            (
                Runner::ChurnRq(sc, PrConfig::paper_default()),
                k10,
                minimal,
                2.4,
            )
        }
        _ => return None,
    };
    let name = NAMES.iter().find(|&&n| n == name)?;
    Some(Workload {
        name,
        runner,
        fabric,
        policy,
        nominal_s,
    })
}

impl Workload {
    /// Logical sessions the runner is asked to complete.
    pub fn sessions(&self) -> usize {
        match self.runner {
            Runner::StorageRq(sc, _) | Runner::StorageTcp(sc) => sc.sessions,
            Runner::ChurnRq(sc, _) => sc.sessions,
        }
    }

    /// Object size per session in bytes.
    pub fn object_bytes(&self) -> usize {
        match self.runner {
            Runner::StorageRq(sc, _) | Runner::StorageTcp(sc) => sc.object_bytes,
            Runner::ChurnRq(sc, _) => sc.object_bytes,
        }
    }

    /// Access-link rate in Gbit/s: no flow's goodput can exceed it.
    pub fn link_gbps(&self) -> f64 {
        let (Fabric::FatTree { rate_bps, .. }
        | Fabric::LeafSpine { rate_bps, .. }
        | Fabric::Jellyfish { rate_bps, .. }) = self.fabric;
        rate_bps as f64 / 1e9
    }

    /// One-line size description for the report's environment block.
    pub fn describe(&self) -> String {
        let (runner, extra) = match self.runner {
            Runner::StorageRq(sc, pr) => (
                "run_storage_rq",
                format!("{:?} oracle={:?}", sc.pattern, pr.oracle),
            ),
            Runner::StorageTcp(sc) => ("run_storage_tcp", format!("{:?}", sc.pattern)),
            Runner::ChurnRq(sc, _) => ("run_churn_rq", format!("faults={}", sc.fault_events)),
        };
        format!(
            "{runner} {} sessions={} object_bytes={} layers={} {extra}",
            self.fabric.describe(),
            self.sessions(),
            self.object_bytes(),
            self.policy.layers,
        )
    }

    /// Generate the logical sessions exactly as the runner does.
    pub fn generate(&self, topo: &Topology) -> Vec<LogicalSession> {
        match self.runner {
            Runner::StorageRq(sc, _) | Runner::StorageTcp(sc) => sc.generate(topo),
            Runner::ChurnRq(sc, _) => sc.storage_sessions(topo),
        }
    }

    /// The public runner call `wall_s` times: library defaults except
    /// for the workload's own protocol configuration and routing policy.
    pub fn run_public(&self) -> Outcome {
        match self.runner {
            Runner::StorageRq(sc, pr) => {
                let opts = RqRunOptions {
                    pr,
                    policy: self.policy,
                    ..Default::default()
                };
                Outcome {
                    flows: run_storage_rq(&sc, &self.fabric, &opts),
                    fabric: None,
                }
            }
            Runner::StorageTcp(sc) => {
                let opts = TcpRunOptions {
                    policy: self.policy,
                    ..Default::default()
                };
                Outcome {
                    flows: run_storage_tcp(&sc, &self.fabric, &opts),
                    fabric: None,
                }
            }
            Runner::ChurnRq(sc, pr) => {
                let opts = RqRunOptions {
                    pr,
                    policy: self.policy,
                    ..Default::default()
                };
                let report = run_churn_rq(&sc, &self.fabric, &opts);
                Outcome {
                    flows: report.flows,
                    fabric: Some(report.fabric.shard_invariant()),
                }
            }
        }
    }

    /// Everything the runner does before its first simulated event,
    /// through the same public functions with the same arguments.
    pub fn setup_public(&self) {
        let topo = self.fabric.build_with_policy(self.policy);
        let sessions = self.generate(&topo);
        if let Runner::ChurnRq(sc, _) = self.runner {
            std::hint::black_box(sc.plan(&topo, &sessions));
        }
        std::hint::black_box((topo, sessions));
    }
}

/// What one run returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-flow results, as the runner sorts them.
    pub flows: Vec<TransferResult>,
    /// Shard-invariant fabric counters, where the runner reports them.
    pub fabric: Option<FabricStats>,
}

/// A run's checked result.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Goodput of every sound foreground flow, Gbit/s.
    pub goodputs: Vec<f64>,
    /// Completion time of every sound foreground flow, ms.
    pub fcts: Vec<f64>,
    /// Hash of every flow's `(session, start, finish)`.
    pub fingerprint: u64,
    /// Sessions without a result, or with a flow that broke a check.
    pub failed_sessions: usize,
}

/// FNV-1a over every flow's `(session, start, finish)`, in report order.
pub fn fingerprint(flows: &[TransferResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in flows {
        eat(u64::from(f.session));
        eat(f.start.as_nanos());
        eat(f.finish.as_nanos());
    }
    h
}

/// Check a run's flows: every session has a result, every flow took
/// simulated time and moved at no more than the link rate.
pub fn check(w: &Workload, outcome: &Outcome) -> Checked {
    let mut bad = vec![true; w.sessions()];
    for f in &outcome.flows {
        if let Some(slot) = bad.get_mut(f.session as usize) {
            *slot = false;
        }
    }
    let (mut goodputs, mut fcts) = (Vec::new(), Vec::new());
    for f in &outcome.flows {
        // `goodput_gbps` panics on a flow that finishes before it starts.
        let sound = f.finish > f.start && f.goodput_gbps() <= w.link_gbps();
        if !sound {
            if let Some(slot) = bad.get_mut(f.session as usize) {
                *slot = true;
            }
        } else if !f.background {
            goodputs.push(f.goodput_gbps());
            fcts.push((f.finish - f.start) as f64 / 1e6);
        }
    }
    Checked {
        goodputs,
        fcts,
        fingerprint: fingerprint(&outcome.flows),
        failed_sessions: bad.iter().filter(|&&b| b).count(),
    }
}

/// Whether the 95th percentile has the ten samples beyond it that the
/// reporting rule asks for.
pub fn tail_supported(foreground_flows: usize) -> bool {
    foreground_flows >= MIN_FOREGROUND_FLOWS && samples_beyond(foreground_flows, 95.0) >= 10
}

/// Run `f`, turning a panic into its message: a run that panics counts
/// all its sessions as failed instead of ending the benchmark.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}
