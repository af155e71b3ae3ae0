//! Integration contract for the telemetry layer: recording a run must
//! never change it.
//!
//! The recorder hooks the simulator's event loop (bucket closure is
//! lazy, probe events never enter the queue, and no RNG draws happen on
//! behalf of telemetry), so byte-identity per seed is structural — but
//! this test pins it at workload scale across several seeds, on the
//! exact churn runner the `fabric_faults --churn --telemetry` example
//! uses. It also checks the recorded artefacts have the advertised
//! shape: fault + reroute annotations, per-session open/close spans,
//! time-series buckets, and exporters that actually emit them. The same
//! identity for every other runner, TCP included, is a row of
//! `tests/run_paths.rs`.

use polyraptor_repro::netsim::SpanMark;
use polyraptor_repro::workload::{
    run_churn_rq, ChurnReport, ChurnScenario, Fabric, RqRunOptions, TelemetryOptions,
};

fn scenario(seed: u64) -> ChurnScenario {
    let mut sc = ChurnScenario::ten_event(6, 1 << 20, seed);
    sc.fault_events = 12;
    sc
}

/// Everything observable about a run except the telemetry itself.
fn fingerprint(rep: &ChurnReport) -> (Vec<(u32, u64, u64, u64)>, String) {
    let flows = rep
        .flows
        .iter()
        .map(|f| {
            (
                f.session,
                f.bytes as u64,
                f.start.as_nanos(),
                f.finish.as_nanos(),
            )
        })
        .collect();
    (flows, format!("{:?}", rep.fabric))
}

#[test]
fn recorder_on_is_byte_identical_to_recorder_off_across_seeds() {
    let fabric = Fabric::small();
    for seed in [1u64, 2, 5, 9] {
        let sc = scenario(seed);
        let off = run_churn_rq(&sc, &fabric, &RqRunOptions::default());
        assert!(off.telemetry.is_none(), "telemetry is off by default");
        let opts = RqRunOptions {
            telemetry: TelemetryOptions::enabled_default(),
            ..Default::default()
        };
        let on = run_churn_rq(&sc, &fabric, &opts);
        assert!(on.telemetry.is_some(), "enabled run returns a recording");
        assert_eq!(
            fingerprint(&off),
            fingerprint(&on),
            "recording perturbed the run for seed {seed}"
        );
    }
}

#[test]
fn recorded_churn_has_annotations_spans_and_exportable_series() {
    let fabric = Fabric::small();
    let sc = scenario(2);
    let opts = RqRunOptions {
        telemetry: TelemetryOptions::enabled_default(),
        ..Default::default()
    };
    let rep = run_churn_rq(&sc, &fabric, &opts);
    let t = rep.telemetry.expect("enabled run records");

    // Time series: buckets cover the run and the CSV exporter emits
    // one row per bucket plus the header.
    let buckets = t.recorder.buckets();
    assert!(!buckets.is_empty());
    assert_eq!(t.fabric_series_csv().lines().count(), buckets.len() + 1);
    let delivered: u64 = buckets.iter().map(|b| b.delivered).sum();
    assert_eq!(
        delivered, rep.fabric.delivered,
        "bucket deltas must sum to the run totals"
    );

    // Annotations: the churn plan injects faults and triggers reroutes.
    let cats: Vec<&str> = t
        .recorder
        .annotations()
        .iter()
        .map(|a| a.event.category())
        .collect();
    assert!(cats.contains(&"fault"), "faults annotated: {cats:?}");
    assert!(cats.contains(&"reroute"), "reroutes annotated: {cats:?}");

    // Spans: each fetch session opens and closes exactly once at its
    // client, and the marks are time-ordered.
    let opens = t.spans.iter().filter(|s| s.mark == SpanMark::Open).count();
    let closes = t.spans.iter().filter(|s| s.mark == SpanMark::Close).count();
    assert_eq!(opens, sc.sessions);
    assert_eq!(closes, sc.sessions);
    assert!(
        t.spans.windows(2).all(|w| w[0].at <= w[1].at),
        "spans sorted by time"
    );

    // The Chrome trace parses far enough to contain both the
    // annotation instants and the session spans.
    let trace = t.trace_json();
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    assert!(trace.contains("\"cat\":\"fault\""));
    assert!(trace.contains("\"cat\":\"reroute\""));
    assert!(trace.contains("\"cat\":\"span\""));
    assert!(trace.contains("fabric rates"));
}
