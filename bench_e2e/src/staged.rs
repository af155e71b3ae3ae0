//! The traced pass's staged replay: each public runner re-run stage by
//! stage through the public API, one span per stage.
//!
//! The stages mirror `workload::runner` / `workload::churn` line for
//! line (same seeds, same call order), and the caller asserts that the
//! replay's fingerprint equals the untraced runner's — so the spans
//! describe the runner, not a lookalike.

use netsim::{
    FabricStats, FaultPlan, NoTelemetry, Pcg32, QueueStats, SimConfig, SimTime, Simulator,
    TelemetrySink,
};
use polyraptor::{host_fail_token, host_up_token, PolyraptorAgent, PrConfig, PrPayload};
use tcpsim::{conn_start_token, TcpAgent, TcpConfig, TcpPayload};
use workload::fault::REROUTE_DELAY_NS;
use workload::telemetry::{gather_rq_spans, take_run_telemetry};
use workload::{
    build_rq_specs, build_tcp_conns, install_rq, Pattern, RunTelemetry, TelemetryOptions,
    TransferResult,
};

use crate::trace::Trace;
use crate::workloads::{Outcome, Runner, Workload};

/// Execution knobs of one replay. The default is the runner's own.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Event-loop shards (`SimConfig::shards`).
    pub shards: usize,
    /// Record with `TelemetryOptions::enabled_default()`.
    pub telemetry: bool,
    /// Replace a real oracle by the counting one (the codec-free twin).
    pub counting_oracle: bool,
}

impl Default for Variant {
    fn default() -> Self {
        Self {
            shards: 1,
            telemetry: false,
            counting_oracle: false,
        }
    }
}

/// Exact transport-level counts, summed over every agent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportCounts {
    /// Symbols collected by Polyraptor receivers.
    pub symbols: u64,
    /// Source symbols (K) of the completed Polyraptor sessions.
    pub source_symbols: u64,
    pub pulls_sent: u64,
    pub trimmed_seen: u64,
    pub stranded: u64,
    pub retargeted: u64,
    pub retarget_symbols: u64,
    pub tcp_timeouts: u64,
    pub tcp_fast_retransmits: u64,
    pub tcp_segments_sent: u64,
}

/// What a staged replay produced.
pub struct Staged {
    /// Root span of this replay in the trace.
    pub root: usize,
    /// Flows and shard-invariant counters, comparable to the runner's.
    pub outcome: Outcome,
    /// Raw fabric counters (shard-machinery fields included).
    pub stats: FabricStats,
    /// Switch-port queue totals.
    pub queues: QueueStats,
    pub counts: TransportCounts,
    /// Simulated time at which the last event ran.
    pub sim_end: SimTime,
    /// The churn runner's fault plan (empty for the storage runners).
    pub plan: FaultPlan,
    /// Recording, when the variant asked for one.
    pub telemetry: Option<RunTelemetry>,
}

/// Replay the workload's runner stage by stage under `variant`.
pub fn replay(w: &Workload, variant: Variant, trace: &mut Trace) -> Staged {
    let recorder = || TelemetryOptions::enabled_default().recorder();
    match (w.runner, variant.telemetry) {
        // The storage runners build `Simulator::new` (telemetry compiled
        // out); the churn runner always carries the `Option<Recorder>`
        // sink. The replay uses the same sink types.
        (Runner::StorageRq(..), false) => rq(w, variant, trace, NoTelemetry, |_| None),
        (Runner::StorageRq(..), true) => rq(w, variant, trace, recorder(), |sim| {
            let spans = gather_rq_spans(sim);
            take_run_telemetry(sim, spans)
        }),
        (Runner::ChurnRq(..), on) => {
            let sink = if on { recorder() } else { None };
            rq(w, variant, trace, sink, |sim| {
                let spans = gather_rq_spans(sim);
                take_run_telemetry(sim, spans)
            })
        }
        (Runner::StorageTcp(..), false) => tcp(w, variant, trace, NoTelemetry, |_| None),
        (Runner::StorageTcp(..), true) => tcp(w, variant, trace, recorder(), |sim| {
            take_run_telemetry(sim, Vec::new())
        }),
    }
}

type RqSim<T> = Simulator<PrPayload, PolyraptorAgent, T>;
type TcpSim<T> = Simulator<TcpPayload, TcpAgent, T>;

/// `run_storage_rq` / `run_churn_rq`, staged.
fn rq<T: TelemetrySink + Send + Sync>(
    w: &Workload,
    variant: Variant,
    trace: &mut Trace,
    sink: T,
    finish: impl FnOnce(&mut RqSim<T>) -> Option<RunTelemetry>,
) -> Staged {
    let (seed, sim_seed, pattern, mut pr, churn) = match w.runner {
        Runner::StorageRq(sc, pr) => (sc.seed, sc.seed ^ 0xFAB, sc.pattern, pr, None),
        Runner::ChurnRq(sc, pr) => (sc.seed, sc.seed ^ 0xC0_17, Pattern::Read, pr, Some(sc)),
        Runner::StorageTcp(_) => unreachable!("TCP workloads replay through tcp()"),
    };
    if variant.counting_oracle {
        pr.oracle = PrConfig::paper_default().oracle;
    }
    pr.record_spans |= variant.telemetry;

    let root = trace.open(None, "workload", "staged_run");
    let topo = trace.time(Some(root), "netsim.topology", "build_with_policy", || {
        w.fabric.build_with_policy(w.policy)
    });
    let sessions = trace.time(Some(root), "workload", "generate", || w.generate(&topo));
    let plan = match churn {
        Some(sc) => trace.time(Some(root), "netsim.fault", "plan", || {
            sc.plan(&topo, &sessions)
        }),
        None => FaultPlan::new(),
    };

    let install = trace.open(Some(root), "netsim.sim", "install");
    let mut cfg = SimConfig::ndp(sim_seed);
    let defaults = workload::RqRunOptions::default();
    cfg.switch_queue = defaults.switch_queue;
    cfg.route = defaults.route;
    cfg.layer_assign = defaults.layer_assign;
    cfg.parallelism = defaults.parallelism;
    cfg.shards = variant.shards;
    if churn.is_some() {
        cfg.reroute_delay_ns = REROUTE_DELAY_NS;
    }
    let mut sim: RqSim<T> = Simulator::with_telemetry(topo, cfg, sink);
    let hosts = sim.topology().hosts().to_vec();
    let mut seed_rng = Pcg32::new(seed ^ 0xA6E27);
    for &h in &hosts {
        let s = seed_rng.next_u64();
        sim.set_agent(h, PolyraptorAgent::new(h, pr, s));
    }
    let specs = build_rq_specs(&mut sim, &sessions, pattern);
    for spec in &specs {
        install_rq(&mut sim, spec);
    }
    if churn.is_some() {
        sim.schedule_faults(&plan);
        for f in &plan.host_failures(sim.topology()) {
            for ls in &sessions {
                if !ls.replicas.contains(&f.host) {
                    continue;
                }
                let notify = f.at.max(ls.start) + REROUTE_DELAY_NS;
                if f.repaired_at.is_some_and(|up| up <= notify) {
                    continue;
                }
                sim.schedule_timer(ls.client, notify, host_fail_token(f.host));
                if let Some(up) = f.repaired_at {
                    let renotify = up.max(ls.start) + REROUTE_DELAY_NS;
                    sim.schedule_timer(ls.client, renotify, host_up_token(f.host));
                }
            }
        }
    }
    trace.close(install, specs.len() as u64);

    let run = trace.open(Some(root), "netsim.sim", "run");
    let events = sim.run_to_completion();
    trace.close(run, events);

    let collect = trace.open(Some(root), "workload", "collect");
    let mut flows = Vec::new();
    let mut counts = TransportCounts::default();
    for (_, agent) in sim.agents() {
        counts.stranded += agent.stranded_sessions;
        counts.retargeted += agent.retargeted_sessions;
        for rec in &agent.records {
            counts.symbols += rec.symbols as u64;
            counts.source_symbols += pr.k_for(rec.data_len) as u64;
            counts.pulls_sent += rec.pulls_sent;
            counts.trimmed_seen += rec.trimmed_seen;
            counts.retarget_symbols += rec.retarget_symbols;
            flows.push(TransferResult {
                session: rec.session.0,
                bytes: rec.data_len,
                start: rec.start,
                finish: rec.finish,
                background: rec.background,
            });
        }
    }
    flows.sort_by_key(|f| f.session);
    let telemetry = finish(&mut sim);
    let stats = sim.stats();
    let staged = Staged {
        root,
        outcome: Outcome {
            flows,
            fabric: churn.map(|_| stats.shard_invariant()),
        },
        stats,
        queues: sim.switch_queue_totals(),
        counts,
        sim_end: sim.now(),
        plan,
        telemetry,
    };
    trace.close(collect, staged.outcome.flows.len() as u64);
    // The runner frees the simulator (agents, encoders, queues) before
    // it returns, inside the time `wall_s` measures.
    trace.time(Some(root), "workload", "teardown", || {
        drop((sim, specs, sessions))
    });
    trace.close(root, w.sessions() as u64);
    staged
}

/// `run_storage_tcp`, staged.
fn tcp<T: TelemetrySink + Send + Sync>(
    w: &Workload,
    variant: Variant,
    trace: &mut Trace,
    sink: T,
    finish: impl FnOnce(&mut TcpSim<T>) -> Option<RunTelemetry>,
) -> Staged {
    let Runner::StorageTcp(sc) = w.runner else {
        unreachable!("Polyraptor workloads replay through rq()");
    };
    let root = trace.open(None, "workload", "staged_run");
    let topo = trace.time(Some(root), "netsim.topology", "build_with_policy", || {
        w.fabric.build_with_policy(w.policy)
    });
    let sessions = trace.time(Some(root), "workload", "generate", || sc.generate(&topo));

    let install = trace.open(Some(root), "netsim.sim", "install");
    let mut cfg = SimConfig::classic(sc.seed ^ 0xFAB);
    let defaults = workload::TcpRunOptions::default();
    cfg.switch_queue = defaults.switch_queue;
    cfg.route = defaults.route;
    cfg.parallelism = defaults.parallelism;
    cfg.shards = variant.shards;
    let mut sim: TcpSim<T> = Simulator::with_telemetry(topo, cfg, sink);
    let hosts = sim.topology().hosts().to_vec();
    for &h in &hosts {
        sim.set_agent(h, TcpAgent::new(h, TcpConfig::paper_default()));
    }
    let conns = build_tcp_conns(&sessions, sc.pattern);
    for c in &conns {
        sim.agent_mut(c.sender).install(c.clone());
        sim.agent_mut(c.receiver).install(c.clone());
        sim.schedule_timer(c.sender, c.start, conn_start_token(c.id));
    }
    trace.close(install, conns.len() as u64);

    let run = trace.open(Some(root), "netsim.sim", "run");
    let events = sim.run_to_completion();
    trace.close(run, events);

    let collect = trace.open(Some(root), "workload", "collect");
    let mut flows = Vec::new();
    for (_, agent) in sim.agents() {
        for rec in &agent.records {
            flows.push(TransferResult {
                session: rec.session,
                bytes: rec.bytes as usize,
                start: rec.start,
                finish: rec.finish,
                background: rec.background,
            });
        }
    }
    flows.sort_by_key(|f| f.session);
    let mut counts = TransportCounts::default();
    for c in &conns {
        if let Some(s) = sim.agent(c.sender).sender(c.id) {
            counts.tcp_timeouts += s.timeouts;
            counts.tcp_fast_retransmits += s.fast_retransmits;
            counts.tcp_segments_sent += s.segments_sent;
        }
    }
    let telemetry = finish(&mut sim);
    let staged = Staged {
        root,
        outcome: Outcome {
            flows,
            fabric: None,
        },
        stats: sim.stats(),
        queues: sim.switch_queue_totals(),
        counts,
        sim_end: sim.now(),
        plan: FaultPlan::new(),
        telemetry,
    };
    trace.close(collect, staged.outcome.flows.len() as u64);
    trace.time(Some(root), "workload", "teardown", || {
        drop((sim, conns, sessions))
    });
    trace.close(root, w.sessions() as u64);
    staged
}
