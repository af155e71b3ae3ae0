//! The two passes over one workload: the untraced timed panel that
//! gives the end-to-end metrics, and the traced pass that gives the
//! per-layer ones.

use std::time::Instant;

use netsim::{FabricStats, QueueConfig};
use polyraptor::OracleMode;

use crate::layers::{self, PAPER_OBJECT_BYTES};
use crate::metrics::PER_LAYER;
use crate::staged::{replay, Staged, Variant};
use crate::stats::{median, min_max, percentile};
use crate::trace::Trace;
use crate::workloads::{build, check, guarded, tail_supported, Checked, Runner, Workload};

/// Settings shared by every workload of an invocation.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Scenarios per panel; `None` derives it from `seconds`.
    pub repeats: Option<usize>,
    /// Nominal measuring time of the untraced panel.
    pub seconds: f64,
    pub smoke: bool,
    /// Threads for the two multi-threaded layer lines (`shard.*`, `par.*`).
    pub threads: usize,
}

/// Seed of the `i`-th scenario of a run's panel. Scenario 0 runs the
/// `--seed` value itself.
pub fn panel_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Scenarios in a workload's panel: as many as fit the nominal
/// measuring time at the workload's nominal scenario time, never fewer
/// than three. Derived from `--seconds` alone, never from a clock, so
/// the simulated metrics of a (seed, seconds) pair repeat exactly.
pub fn panel_size(w: &Workload, settings: &Settings) -> usize {
    match settings.repeats {
        Some(r) => r,
        None if settings.smoke => 1,
        None => ((settings.seconds / w.nominal_s) as usize).clamp(3, 12),
    }
}

/// A host-time metric's samples within one run.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            median(&self.0)
        }
    }
    pub fn min_max(&self) -> (f64, f64) {
        if self.0.is_empty() {
            (0.0, 0.0)
        } else {
            min_max(&self.0)
        }
    }
}

/// Sessions attempted and failed, with the reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, sessions: usize, note: String) {
        self.failed += sessions;
        eprintln!("bench_e2e: FAILED: {note}");
        self.notes.push(note);
    }
}

/// The untraced pass's result for one workload.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub wall_s: Samples,
    pub setup_s: Samples,
    pub peak_rss_mb: f64,
    /// Median foreground goodput over the panel's pooled flows.
    pub goodput_gbps_p50: f64,
    /// 95th-percentile foreground completion time over the pooled flows.
    pub fct_ms_p95: f64,
    pub foreground_flows: usize,
    /// Per-scenario flow fingerprints, in panel order.
    pub fingerprints: Vec<u64>,
    pub tally: Tally,
}

impl EndToEnd {
    pub fn completed_share(&self) -> f64 {
        1.0 - self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// `(name, value)` for every declared end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("wall_s", self.wall_s.median()),
            ("setup_s", self.setup_s.median()),
            ("peak_rss_mb", self.peak_rss_mb),
            ("goodput_gbps_p50", self.goodput_gbps_p50),
            ("fct_ms_p95", self.fct_ms_p95),
            ("completed_share", self.completed_share()),
        ]
    }
}

/// A `VmHWM` / `VmRSS` style line of `/proc/self/status`, in MB.
pub fn proc_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one checked run of the public runner gave.
struct RunData {
    checked: Checked,
    fabric: Option<FabricStats>,
}

/// One checked untraced run of the public runner, with its wall time.
fn timed_run(w: &Workload, tally: &mut Tally) -> (f64, Option<RunData>) {
    tally.attempted += w.sessions();
    let t = Instant::now();
    let outcome = guarded(|| w.run_public());
    let wall = t.elapsed().as_secs_f64();
    match outcome {
        Ok(outcome) => {
            let checked = check(w, &outcome);
            if checked.failed_sessions > 0 {
                tally.fail(
                    checked.failed_sessions,
                    format!(
                        "{}: {} sessions broke an output check",
                        w.name, checked.failed_sessions
                    ),
                );
            }
            let data = RunData {
                checked,
                fabric: outcome.fabric,
            };
            (wall, Some(data))
        }
        Err(panic) => {
            tally.fail(w.sessions(), format!("{}: run panicked: {panic}", w.name));
            (wall, None)
        }
    }
}

/// The untraced pass: one discarded warm-up run, then the timed panel.
pub fn untraced(name: &str, settings: &Settings) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut scratch = Tally::default();
    let first = build(name, panel_seed(settings.seed, 0), settings.smoke).expect("known workload");
    let panel = panel_size(&first, settings);
    // First-touch page faults make a cold run up to twice as slow as a
    // warm one; the warm-up also pins determinism (same scenario as
    // panel member 0, so the two must share a fingerprint).
    let warm = timed_run(&first, &mut scratch)
        .1
        .map(|d| d.checked.fingerprint);

    let (mut goodputs, mut fcts) = (Vec::new(), Vec::new());
    for i in 0..panel {
        let w = build(name, panel_seed(settings.seed, i), settings.smoke).expect("known workload");
        let (wall, data) = timed_run(&w, &mut out.tally);
        out.wall_s.0.push(wall);
        if let Some(d) = data {
            let c = d.checked;
            if i == 0 && warm != Some(c.fingerprint) {
                out.tally.fail(
                    w.sessions(),
                    format!(
                        "{name}: two runs of one scenario differ ({warm:016x?} vs {:016x})",
                        c.fingerprint
                    ),
                );
            }
            out.fingerprints.push(c.fingerprint);
            goodputs.extend(c.goodputs);
            fcts.extend(c.fcts);
        }
        // Set-up is milliseconds on the k = 10 fabrics and seconds on
        // the Jellyfish: sample it until a quarter second is spent.
        let budget = Instant::now();
        for _ in 0..16 {
            let t = Instant::now();
            if let Err(panic) = guarded(|| w.setup_public()) {
                out.tally
                    .fail(0, format!("{name}: set-up panicked: {panic}"));
                break;
            }
            out.setup_s.0.push(t.elapsed().as_secs_f64());
            if budget.elapsed().as_secs_f64() >= 0.25 {
                break;
            }
        }
    }
    out.peak_rss_mb = proc_status_mb("VmHWM:");
    out.foreground_flows = goodputs.len();
    if !goodputs.is_empty() {
        out.goodput_gbps_p50 = percentile(&goodputs, 50.0);
        out.fct_ms_p95 = percentile(&fcts, 95.0);
    }
    if !settings.smoke && !tail_supported(out.foreground_flows) {
        out.tally.fail(
            0,
            format!(
                "{name}: {} foreground flows do not support a 95th percentile",
                out.foreground_flows
            ),
        );
    }
    out
}

/// The traced pass's result for one workload.
pub struct PerLayer {
    pub metrics: Vec<(&'static str, f64)>,
    pub trace: Trace,
    pub tally: Tally,
}

impl PerLayer {
    /// A traced pass that could not be made: every metric reads 0 and
    /// the note says why.
    pub fn failed(mut tally: Tally, note: String) -> Self {
        tally.fail(0, note);
        Self {
            metrics: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
            trace: Trace::new(),
            tally,
        }
    }
}

/// Check a replay against the untraced reference and the fabric's own
/// accounting; failures count against the replay's sessions.
fn check_replay(w: &Workload, what: &str, staged: &Staged, reference: &Checked, tally: &mut Tally) {
    tally.attempted += w.sessions();
    let checked = check(w, &staged.outcome);
    if checked.failed_sessions > 0 {
        tally.fail(
            checked.failed_sessions,
            format!("{}: {what} replay broke an output check", w.name),
        );
    }
    if checked.fingerprint != reference.fingerprint {
        tally.fail(
            w.sessions(),
            format!(
                "{}: {what} replay fingerprint {:016x} differs from the runner's {:016x}",
                w.name, checked.fingerprint, reference.fingerprint
            ),
        );
    }
    // Every packet fate the simulator reports is one of delivered,
    // trimmed, dropped or lost to a fault; the queue- and layer-level
    // views of the same fates can never exceed the fabric totals.
    let s = &staged.stats;
    let q = &staged.queues;
    let consistent = s.delivered > 0
        && q.trimmed <= s.trimmed
        && q.dropped <= s.dropped
        && s.layer_trimmed.iter().sum::<u64>() <= s.trimmed
        && s.layer_dropped.iter().sum::<u64>() <= s.dropped
        // Drop-tail queues never trim.
        && (!matches!(w.runner, Runner::StorageTcp(_)) || s.trimmed == 0);
    if !consistent {
        tally.fail(
            w.sessions(),
            format!(
                "{}: {what} replay's packet fates do not add up: {s:?} vs {q:?}",
                w.name
            ),
        );
    }
}

/// The traced pass, on panel member 0's scenario.
pub fn traced(name: &str, settings: &Settings) -> PerLayer {
    let w = build(name, panel_seed(settings.seed, 0), settings.smoke).expect("known workload");
    let mut tally = Tally::default();
    let mut trace = Trace::new();
    let reps = if settings.smoke { 1 } else { 2 };

    // Untraced runner calls and staged replays of the same scenario,
    // interleaved so that a noisy spell on the host hits both sides.
    let mut scratch = Tally::default();
    let Some(reference) = timed_run(&w, &mut scratch).1 else {
        return PerLayer::failed(tally, format!("{name}: no runner result to replay against"));
    };
    let (mut walls, mut roots, mut stage_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut base = None;
    for _ in 0..reps {
        walls.push(timed_run(&w, &mut tally).0);
        let staged = replay(&w, Variant::default(), &mut trace);
        check_replay(&w, "staged", &staged, &reference.checked, &mut tally);
        roots.push(trace.ms(staged.root) / 1e3);
        stage_sums.push(trace.children_ns(staged.root) as f64 / 1e9);
        base = Some(staged);
    }
    let base = base.expect("at least one replay");
    let (wall_s, staged_wall_s) = (median(&walls), median(&roots));
    if reference.fabric != base.outcome.fabric {
        tally.fail(
            w.sessions(),
            format!("{name}: staged fabric counters differ from the runner's"),
        );
    }
    let reference = reference.checked;
    let root = base.root;
    let span_ms = |t: &Trace, n: &str| t.child_ms(root, n);

    // The same replay sharded, recorded, and (real oracle) codec-free.
    let sharded = replay(
        &w,
        Variant {
            shards: settings.threads,
            ..Variant::default()
        },
        &mut trace,
    );
    check_replay(&w, "sharded", &sharded, &reference, &mut tally);
    let recorded = replay(
        &w,
        Variant {
            telemetry: true,
            ..Variant::default()
        },
        &mut trace,
    );
    check_replay(&w, "recorded", &recorded, &reference, &mut tally);
    let sharded_s = trace.ms(sharded.root) / 1e3;
    let recorded_s = trace.ms(recorded.root) / 1e3;
    let telemetry = recorded.telemetry.as_ref();
    let export = trace.open(None, "workload.telemetry", "export");
    if let Some(t) = telemetry {
        std::hint::black_box((t.trace_json(), t.fabric_series_csv(), t.port_series_csv()));
    }
    trace.close(export, 3);
    let export_ms = trace.ms(export);
    let real_oracle = matches!(
        w.runner,
        Runner::StorageRq(_, pr) | Runner::ChurnRq(_, pr) if pr.oracle == OracleMode::Real
    );
    let oracle_gap_s = if real_oracle {
        let twin = replay(
            &w,
            Variant {
                counting_oracle: true,
                ..Variant::default()
            },
            &mut trace,
        );
        staged_wall_s - trace.ms(twin.root) / 1e3
    } else {
        0.0
    };

    // Direct calls into the layers, on this workload's fabric and shape.
    let probes = trace.open(None, "bench", "layer_probes");
    let rss_before = proc_status_mb("VmRSS:");
    let build = trace.open(Some(probes), "netsim.topology", "build_with_policy");
    let mut topo = w.fabric.build_with_policy(w.policy);
    trace.close(build, 1);
    let topology_rss_mb = (proc_status_mb("VmRSS:") - rss_before).max(0.0);
    let build_ms = trace.ms(build);
    let routes = trace.time(Some(probes), "netsim.topology", "route_probes", || {
        layers::routes(&mut topo, settings.threads, settings.seed)
    });
    let repairs = trace.time(Some(probes), "netsim.topology", "repair_replay", || {
        layers::repair_replay(&mut topo, &base.plan)
    });
    drop(topo);
    if (repairs.reroutes, repairs.dests_rebuilt)
        != (base.stats.reroutes, base.stats.route_dests_rebuilt)
    {
        tally.fail(
            0,
            format!(
                "{name}: control-plane replay did {} reroutes / {} columns, the run {} / {}",
                repairs.reroutes,
                repairs.dests_rebuilt,
                base.stats.reroutes,
                base.stats.route_dests_rebuilt
            ),
        );
    }
    let object = w.object_bytes();
    let codec = trace.time(Some(probes), "rq", "codec_probes", || {
        layers::codec(object, settings.seed)
    });
    let paper_object = if settings.smoke {
        object
    } else {
        PAPER_OBJECT_BYTES
    };
    let codec_4m = trace.time(Some(probes), "rq", "codec_probes_4m", || {
        layers::codec(paper_object, settings.seed)
    });
    let addmul = trace.time(
        Some(probes),
        "rq",
        "gf256_addmul",
        layers::gf256_addmul_mb_s,
    );
    let oracle = trace.time(Some(probes), "polyraptor", "oracle_probes", || {
        layers::oracle(object, 3, settings.seed)
    });
    let ndp_ns = trace.time(Some(probes), "netsim.queue", "ndp_enq_deq", || {
        layers::queue_enq_deq_ns(QueueConfig::NDP_DEFAULT)
    });
    let droptail_ns = trace.time(Some(probes), "netsim.queue", "droptail_enq_deq", || {
        layers::queue_enq_deq_ns(QueueConfig::DROPTAIL_DEFAULT)
    });
    trace.close(probes, 1);

    let s = base.stats;
    let c = base.counts;
    let run_ms = span_ms(&trace, "run");
    let fates = (s.delivered + s.dropped + s.lost_to_fault) as f64;
    let codec_run_s = if real_oracle {
        oracle.session_s * w.sessions() as f64
    } else {
        0.0
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let metrics = vec![
        ("rq.encode_mb_s", codec.encode_mb_s),
        ("rq.symbol_mb_s", codec.symbol_mb_s),
        ("rq.decode_noloss_mb_s", codec.decode_noloss_mb_s),
        ("rq.decode_loss10_mb_s", codec.decode_loss10_mb_s),
        ("rq.decode_repair_only_mb_s", codec.decode_repair_only_mb_s),
        ("rq.decode_fail_share", codec.decode_fail_share),
        ("rq.encode_mb_s_4m", codec_4m.encode_mb_s),
        ("rq.symbol_mb_s_4m", codec_4m.symbol_mb_s),
        ("rq.decode_noloss_mb_s_4m", codec_4m.decode_noloss_mb_s),
        ("rq.decode_loss10_mb_s_4m", codec_4m.decode_loss10_mb_s),
        (
            "rq.decode_repair_only_mb_s_4m",
            codec_4m.decode_repair_only_mb_s,
        ),
        ("rq.decode_fail_share_4m", codec_4m.decode_fail_share),
        ("rq.gf256_addmul_mb_s", addmul),
        (
            "rq.fast_path_decodes",
            (codec.fast_path_decodes + codec_4m.fast_path_decodes) as f64,
        ),
        (
            "rq.solver_decodes",
            (codec.solver_decodes + codec_4m.solver_decodes) as f64,
        ),
        ("rq.run_share", codec_run_s / staged_wall_s),
        ("polyraptor.oracle_new_ms", oracle.new_ms),
        ("polyraptor.oracle_add_us", oracle.add_us),
        ("polyraptor.real_oracle_gap_s", oracle_gap_s),
        (
            "polyraptor.symbols_per_k",
            ratio(c.symbols, c.source_symbols),
        ),
        (
            "polyraptor.pulls_per_symbol",
            ratio(c.pulls_sent, c.symbols),
        ),
        ("polyraptor.trimmed_seen", c.trimmed_seen as f64),
        ("polyraptor.stranded", c.stranded as f64),
        ("polyraptor.retargeted", c.retargeted as f64),
        ("polyraptor.retarget_symbols", c.retarget_symbols as f64),
        ("tcp.timeouts", c.tcp_timeouts as f64),
        ("tcp.fast_retransmits", c.tcp_fast_retransmits as f64),
        ("tcp.segments_sent", c.tcp_segments_sent as f64),
        ("topology.build_ms", build_ms),
        ("topology.compute_routes_ms", routes.compute_routes_ms),
        ("topology.repair_link_ms", routes.repair_link_ms),
        ("topology.restore_link_ms", routes.restore_link_ms),
        ("topology.repair_switch_ms", routes.repair_switch_ms),
        ("topology.lookup_ns", routes.lookup_ns),
        ("topology.rss_mb", topology_rss_mb),
        ("topology.route_dests_rebuilt", s.route_dests_rebuilt as f64),
        ("topology.repair_replay_ms", 1e3 * repairs.secs),
        (
            "topology.run_share",
            (span_ms(&trace, "build_with_policy") / 1e3 + repairs.secs) / staged_wall_s,
        ),
        ("par.compute_routes_ratio", routes.par_compute_routes_ratio),
        ("fault.plan_compile_ms", span_ms(&trace, "plan")),
        ("fault.events", base.plan.len() as f64),
        ("sim.install_ms", span_ms(&trace, "install")),
        ("sim.run_ms", run_ms),
        ("sim.events", s.events as f64),
        ("sim.ns_per_event", 1e6 * run_ms / s.events.max(1) as f64),
        (
            "sim.sim_ns_per_wall_ns",
            base.sim_end.as_nanos() as f64 / (1e6 * run_ms).max(1.0),
        ),
        ("sim.delivered", s.delivered as f64),
        ("sim.trimmed", s.trimmed as f64),
        ("sim.dropped", s.dropped as f64),
        ("sim.lost_to_fault", s.lost_to_fault as f64),
        ("sim.delivered_share", s.delivered as f64 / fates.max(1.0)),
        ("sim.reroutes", s.reroutes as f64),
        ("sim.reroutes_incremental", s.reroutes_incremental as f64),
        ("sim.flaps_coalesced", s.flaps_coalesced as f64),
        ("sim.layer_reassignments", s.layer_reassignments as f64),
        ("queue.ndp_enq_deq_ns", ndp_ns),
        ("queue.droptail_enq_deq_ns", droptail_ns),
        ("queue.max_depth", base.queues.max_depth as f64),
        ("shard.wall_ratio", sharded_s / staged_wall_s),
        ("shard.epochs", sharded.stats.shard_epochs as f64),
        (
            "shard.cross_packets",
            sharded.stats.cross_shard_packets as f64,
        ),
        ("shard.horizon_stalls", sharded.stats.horizon_stalls as f64),
        ("telemetry.on_wall_ratio", recorded_s / staged_wall_s),
        ("telemetry.export_ms", export_ms),
        (
            "telemetry.buckets",
            telemetry.map_or(0.0, |t| t.recorder.buckets().len() as f64),
        ),
        ("workload.generate_ms", span_ms(&trace, "generate")),
        ("workload.collect_ms", span_ms(&trace, "collect")),
        ("workload.flows", base.outcome.flows.len() as f64),
        ("workload.stage_sum_ratio", median(&stage_sums) / wall_s),
        ("workload.staged_wall_s", staged_wall_s),
        ("trace.overhead_share", (staged_wall_s - wall_s) / wall_s),
        ("trace.spans", trace.spans().len() as f64),
    ];
    PerLayer {
        metrics,
        trace,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{check_reported, MAX_PER_LAYER};
    use workload::{Fabric, StorageScenario};

    fn smoke(seed: u64) -> Settings {
        Settings {
            seed,
            repeats: None,
            seconds: 15.0,
            smoke: true,
            threads: 1,
        }
    }

    #[test]
    fn panel_sizes_come_from_seconds_alone() {
        let panel_size =
            |name: &str, s: &Settings| super::panel_size(&build(name, s.seed, s.smoke).unwrap(), s);
        let mut s = smoke(1);
        assert_eq!(
            panel_size("fig1a_write_k10", &s),
            1,
            "smoke runs one scenario"
        );
        s.smoke = false;
        assert_eq!(panel_size("fig1a_write_k10", &s), 4);
        assert_eq!(panel_size("fig1b_read_real_k10", &s), 4);
        assert_eq!(panel_size("churn_jelly5000_l2", &s), 3, "never below three");
        assert_eq!(panel_size("churn_dense_k10", &s), 6);
        s.seconds = 1000.0;
        assert_eq!(panel_size("tcp_write_k10", &s), 12, "capped");
        s.repeats = Some(5);
        assert_eq!(panel_size("tcp_write_k10", &s), 5);
        assert_eq!(panel_seed(7, 0), 7);
        assert_ne!(panel_seed(7, 1), panel_seed(8, 0));
    }

    #[test]
    fn fingerprints_repeat_per_seed_and_differ_across_seeds() {
        let two = |seed| Settings {
            repeats: Some(2),
            ..smoke(seed)
        };
        let a = untraced("churn_dense_k10", &two(1));
        let b = untraced("churn_dense_k10", &two(1));
        let c = untraced("churn_dense_k10", &two(2));
        assert_eq!(a.tally.failed, 0, "{:?}", a.tally.notes);
        assert_eq!(a.fingerprints.len(), 2);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_ne!(a.fingerprints, c.fingerprints);
        assert_ne!(a.fingerprints[0], a.fingerprints[1], "panel members differ");
        // The simulated metrics are exact per seed.
        assert_eq!(a.goodput_gbps_p50, b.goodput_gbps_p50);
        assert_eq!(a.fct_ms_p95, b.fct_ms_p95);
        assert_eq!(a.completed_share(), 1.0);
        assert_eq!(a.wall_s.0.len(), 2);
        assert!(!a.setup_s.0.is_empty() && a.peak_rss_mb > 0.0);
    }

    #[test]
    fn a_panicking_run_counts_every_session_failed() {
        // More replicas than the fabric has hosts: `generate` panics
        // inside the public runner.
        let w = Workload {
            name: "tcp_write_k10",
            runner: Runner::StorageTcp(StorageScenario::fig1a(7, 40, 1)),
            fabric: Fabric::small(),
            policy: netsim::RoutingPolicy::minimal(),
            nominal_s: 1.0,
        };
        let mut tally = Tally::default();
        let (_, data) = timed_run(&w, &mut tally);
        assert!(data.is_none());
        assert_eq!((tally.attempted, tally.failed), (7, 7));
        assert!(tally.notes[0].contains("panicked"), "{:?}", tally.notes);
        let e = EndToEnd {
            tally,
            ..EndToEnd::default()
        };
        assert_eq!(e.completed_share(), 0.0);
    }

    #[test]
    fn traced_smoke_pass_reports_every_declared_metric() {
        for name in ["tcp_write_k10", "churn_dense_k10"] {
            let p = traced(name, &smoke(3));
            assert!(p.tally.notes.is_empty(), "{name}: {:?}", p.tally.notes);
            check_reported(&p.metrics, &PER_LAYER, MAX_PER_LAYER).unwrap();
            assert!(p.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            let get = |n: &str| p.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
            assert!(get("sim.events") > 0.0 && get("workload.flows") > 0.0);
            assert_eq!(get("tcp.segments_sent") > 0.0, name == "tcp_write_k10");
            assert_eq!(get("sim.reroutes") > 0.0, name == "churn_dense_k10");
            assert!(p.trace.spans().iter().any(|s| s.name == "teardown"));
        }
    }
}
