//! The benchmark's declared metrics: name, unit and direction. The
//! same tables are written in `BENCHMARK.json`; a unit test keeps the
//! two in step.

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The contract allows at most this many end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// The contract allows at most this many per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;

/// What a user of the simulator sees. "host" numbers are wall clock and
/// memory of the simulator process; "sim" numbers are simulated time.
pub const END_TO_END: [Decl; 6] = [
    lower("wall_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("goodput_gbps_p50", "Gbit/s"),
    lower("fct_ms_p95", "ms"),
    higher("completed_share", "ratio"),
];

/// One layer each; names lead with the repo module they measure.
pub const PER_LAYER: [Decl; 72] = [
    // rq, at the workload's object size and (suffix _4m) at 4 MiB.
    higher("rq.encode_mb_s", "MB/s"),
    higher("rq.symbol_mb_s", "MB/s"),
    higher("rq.decode_noloss_mb_s", "MB/s"),
    higher("rq.decode_loss10_mb_s", "MB/s"),
    higher("rq.decode_repair_only_mb_s", "MB/s"),
    lower("rq.decode_fail_share", "ratio"),
    higher("rq.encode_mb_s_4m", "MB/s"),
    higher("rq.symbol_mb_s_4m", "MB/s"),
    higher("rq.decode_noloss_mb_s_4m", "MB/s"),
    higher("rq.decode_loss10_mb_s_4m", "MB/s"),
    higher("rq.decode_repair_only_mb_s_4m", "MB/s"),
    lower("rq.decode_fail_share_4m", "ratio"),
    higher("rq.gf256_addmul_mb_s", "MB/s"),
    higher("rq.fast_path_decodes", "count"),
    lower("rq.solver_decodes", "count"),
    lower("rq.run_share", "ratio"),
    // polyraptor
    lower("polyraptor.oracle_new_ms", "ms"),
    lower("polyraptor.oracle_add_us", "us"),
    lower("polyraptor.real_oracle_gap_s", "s"),
    lower("polyraptor.symbols_per_k", "ratio"),
    lower("polyraptor.pulls_per_symbol", "ratio"),
    lower("polyraptor.trimmed_seen", "count"),
    lower("polyraptor.stranded", "count"),
    lower("polyraptor.retargeted", "count"),
    lower("polyraptor.retarget_symbols", "count"),
    // tcpsim
    lower("tcp.timeouts", "count"),
    lower("tcp.fast_retransmits", "count"),
    lower("tcp.segments_sent", "count"),
    // netsim::topology
    lower("topology.build_ms", "ms"),
    lower("topology.compute_routes_ms", "ms"),
    lower("topology.repair_link_ms", "ms"),
    lower("topology.restore_link_ms", "ms"),
    lower("topology.repair_switch_ms", "ms"),
    lower("topology.lookup_ns", "ns"),
    lower("topology.rss_mb", "MB"),
    lower("topology.route_dests_rebuilt", "count"),
    lower("topology.repair_replay_ms", "ms"),
    lower("topology.run_share", "ratio"),
    // netsim::par
    lower("par.compute_routes_ratio", "ratio"),
    // netsim::fault
    lower("fault.plan_compile_ms", "ms"),
    lower("fault.events", "count"),
    // netsim::sim
    lower("sim.install_ms", "ms"),
    lower("sim.run_ms", "ms"),
    lower("sim.events", "count"),
    lower("sim.ns_per_event", "ns"),
    higher("sim.sim_ns_per_wall_ns", "ratio"),
    higher("sim.delivered", "count"),
    lower("sim.trimmed", "count"),
    lower("sim.dropped", "count"),
    lower("sim.lost_to_fault", "count"),
    higher("sim.delivered_share", "ratio"),
    lower("sim.reroutes", "count"),
    higher("sim.reroutes_incremental", "count"),
    higher("sim.flaps_coalesced", "count"),
    lower("sim.layer_reassignments", "count"),
    // netsim::queue
    lower("queue.ndp_enq_deq_ns", "ns"),
    lower("queue.droptail_enq_deq_ns", "ns"),
    lower("queue.max_depth", "count"),
    // netsim::shard
    lower("shard.wall_ratio", "ratio"),
    lower("shard.epochs", "count"),
    lower("shard.cross_packets", "count"),
    lower("shard.horizon_stalls", "count"),
    // netsim::telemetry + workload::telemetry
    lower("telemetry.on_wall_ratio", "ratio"),
    lower("telemetry.export_ms", "ms"),
    lower("telemetry.buckets", "count"),
    // workload, and the trace itself
    lower("workload.generate_ms", "ms"),
    lower("workload.collect_ms", "ms"),
    higher("workload.flows", "count"),
    lower("workload.stage_sum_ratio", "ratio"),
    lower("workload.staged_wall_s", "s"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans", "count"),
];

/// The declaration of a metric the tool reports.
///
/// # Panics
/// Panics on a name that is in neither table: the tool reports only
/// declared metrics.
pub fn decl(name: &str) -> &'static Decl {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Check that a pass reported exactly the declared metrics, in order,
/// under names the contract accepts.
pub fn check_reported(
    reported: &[(&'static str, f64)],
    declared: &[Decl],
    limit: usize,
) -> Result<(), String> {
    let names: Vec<&str> = reported.iter().map(|&(n, _)| n).collect();
    crate::stats::validate_metric_names(&names, limit)?;
    let expected: Vec<&str> = declared.iter().map(|d| d.name).collect();
    if names != expected {
        return Err(format!("reported {names:?}, declared {expected:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::validate_metric_names;

    fn names(decls: &[Decl]) -> Vec<&'static str> {
        decls.iter().map(|d| d.name).collect()
    }

    #[test]
    fn declared_names_and_units_meet_the_contract() {
        let zeros = |decls: &[Decl]| -> Vec<(&'static str, f64)> {
            decls.iter().map(|d| (d.name, 0.0)).collect()
        };
        check_reported(&zeros(&END_TO_END), &END_TO_END, MAX_END_TO_END).unwrap();
        check_reported(&zeros(&PER_LAYER), &PER_LAYER, MAX_PER_LAYER).unwrap();
        assert!(check_reported(&zeros(&END_TO_END)[1..], &END_TO_END, MAX_END_TO_END).is_err());
        assert!(check_reported(&zeros(&PER_LAYER), &PER_LAYER, 16).is_err());
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        validate_metric_names(&all, MAX_END_TO_END + MAX_PER_LAYER).unwrap();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                d.unit,
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repo root declares exactly these tables.
    #[test]
    fn benchmark_json_matches_the_tool() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), decls.len(), "{key} length");
            for (entry, d) in listed.iter().zip(decls) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(d.name));
                assert_eq!(field("unit"), Some(d.unit), "{}", d.name);
                assert_eq!(field("better"), Some(d.better.as_str()), "{}", d.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
