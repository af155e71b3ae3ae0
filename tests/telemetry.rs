//! Integration contract for the telemetry layer: a recorded churn run
//! (the exact runner the `fabric_faults --churn --telemetry` example
//! uses) carries the advertised artefacts — fault + reroute
//! annotations, per-session open/close spans, time-series buckets — and
//! exporters that actually emit them. That recording never changes a
//! run, at any shard count, is `tests/identity.rs`.

use polyraptor_repro::netsim::SpanMark;
use polyraptor_repro::workload::{
    run, ChurnScenario, Fabric, RqRunOptions, TelemetryOptions, Transport,
};

#[test]
fn recorded_churn_has_annotations_spans_and_exportable_series() {
    let fabric = Fabric::small();
    let sc = ChurnScenario {
        fault_events: 12,
        ..ChurnScenario::ten_event(6, 1 << 20, 2)
    };
    let opts = RqRunOptions {
        telemetry: TelemetryOptions::enabled_default(),
        ..Default::default()
    };
    let rep = run(sc.build(&fabric, Transport::Rq(opts)));
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
