//! Telemetry surface for the experiment runners: opt-in recording
//! knobs, the combined run artefact (fabric recorder + transport flow
//! spans), and the exporters — per-port / fabric-wide CSV time series
//! and a Chrome-trace ("Trace Event Format") JSON that loads in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Recording is off by default ([`TelemetryOptions::default`]); every
//! run honours the options — [`crate::run`] is the one place they
//! take effect — and returns a [`RunTelemetry`] in its
//! [`crate::RunReport`] when enabled. Enabling telemetry
//! never perturbs a run: the recorder consumes no randomness and pushes
//! no events into the simulator's queue (see `netsim::telemetry`), and
//! flow spans are plain appends on session-rare agent paths — the
//! byte-identity property is tested in `tests/identity.rs`.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use netsim::{
    Agent, FlowSpanEvent, Recorder, SimPayload, Simulator, SpanMark, TelemetryConfig, TraceBuilder,
};
use polyraptor::{PolyraptorAgent, PrPayload};

/// Trace-track process id for the fabric-wide timeline; hosts get
/// `node + 1` so node 0 never collides with the fabric track.
const FABRIC_PID: u32 = 0;

/// Opt-in telemetry knobs for a run, carried by
/// [`crate::RqRunOptions`] / [`crate::TcpRunOptions`] and honoured by
/// every run. A runner whose public result is not a report (storage,
/// incast, hotspot) drops the recording; build the scenario's
/// [`crate::Run`] and call [`crate::run`] to keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Record this run (default `false`: the runner installs the
    /// `None` sink, whose only cost is one always-false time comparison
    /// per event).
    pub enabled: bool,
    /// Sampling bucket width in nanoseconds.
    pub window_ns: u64,
    /// Flight-recorder ring capacity in annotations.
    pub ring_capacity: usize,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        let cfg = TelemetryConfig::default();
        Self {
            enabled: false,
            window_ns: cfg.window_ns,
            ring_capacity: cfg.ring_capacity,
        }
    }
}

impl TelemetryOptions {
    /// Recording on, at the default window and ring capacity.
    pub fn enabled_default() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// The sink to install on the simulator: `Some(recorder)` when
    /// enabled, `None` otherwise.
    pub fn recorder(&self) -> Option<Recorder> {
        self.enabled.then(|| {
            Recorder::new(TelemetryConfig {
                window_ns: self.window_ns,
                ring_capacity: self.ring_capacity,
            })
        })
    }
}

/// Everything one recorded run produced: the fabric recorder (buckets,
/// annotations, flight-recorder dumps) plus the transport agents' flow
/// spans, with the exporters that turn them into files.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The fabric-side recorder, finished (final bucket closed).
    pub recorder: Recorder,
    /// Flow/session span marks collected from every agent, sorted by
    /// time (ties keep the deterministic node order).
    pub spans: Vec<FlowSpanEvent>,
}

impl RunTelemetry {
    /// Fabric-wide time series, one row per bucket: delivery, trim,
    /// drop, and fault-loss rates plus total sampled queue depth.
    pub fn fabric_series_csv(&self) -> String {
        let rows = self.recorder.buckets().iter().map(|b| {
            let secs = b.width_ns() as f64 / 1e9;
            vec![
                b.end.as_nanos() as f64 / 1e6,
                b.delivered as f64 / secs,
                b.trimmed as f64 / secs,
                b.dropped as f64 / secs,
                b.lost_to_fault as f64 / secs,
                b.total_depth() as f64,
            ]
        });
        crate::csv::to_csv(
            &[
                "t_ms",
                "delivered_per_s",
                "trims_per_s",
                "drops_per_s",
                "lost_per_s",
                "queue_depth_pkts",
            ],
            rows,
        )
    }

    /// Per-port time series, one row per (bucket, active switch port):
    /// queue depth at the bucket's closing edge plus enqueue/trim/drop
    /// rates and transmit goodput over the bucket. Sparse — idle ports
    /// emit nothing.
    pub fn port_series_csv(&self) -> String {
        let rows = self.recorder.buckets().iter().flat_map(|b| {
            let t_ms = b.end.as_nanos() as f64 / 1e6;
            let secs = b.width_ns() as f64 / 1e9;
            b.ports.iter().map(move |p| {
                vec![
                    t_ms,
                    f64::from(p.node),
                    f64::from(p.port),
                    f64::from(p.depth),
                    p.enqueued as f64 / secs,
                    p.trimmed as f64 / secs,
                    p.dropped as f64 / secs,
                    p.tx_bytes as f64 * 8.0 / secs / 1e9,
                ]
            })
        });
        crate::csv::to_csv(
            &[
                "t_ms",
                "node",
                "port",
                "depth_pkts",
                "enq_per_s",
                "trims_per_s",
                "drops_per_s",
                "tx_gbps",
            ],
            rows,
        )
    }

    /// The Chrome-trace JSON document: fabric annotations as instants,
    /// per-bucket rates and queue depth as counter tracks, and one
    /// track per (receiver, session) with the session's open→close span
    /// and its recovery marks.
    pub fn trace_json(&self) -> String {
        let mut tb = TraceBuilder::new();
        tb.process_name(FABRIC_PID, "fabric");
        tb.thread_name(FABRIC_PID, 0, "fabric events");
        for a in self.recorder.annotations() {
            tb.instant(
                &a.event.label(),
                a.event.category(),
                FABRIC_PID,
                0,
                a.at.as_nanos(),
            );
        }
        for b in self.recorder.buckets() {
            let secs = b.width_ns() as f64 / 1e9;
            tb.counter(
                "fabric rates",
                FABRIC_PID,
                b.end.as_nanos(),
                &[
                    ("delivered_per_s", b.delivered as f64 / secs),
                    ("trims_per_s", b.trimmed as f64 / secs),
                    ("drops_per_s", b.dropped as f64 / secs),
                    ("lost_per_s", b.lost_to_fault as f64 / secs),
                ],
            );
            tb.counter(
                "queue depth",
                FABRIC_PID,
                b.end.as_nanos(),
                &[("pkts", b.total_depth() as f64)],
            );
        }
        // Group spans into per-(receiver, session) tracks. BTreeMap
        // keeps the emission order deterministic.
        let mut tracks: BTreeMap<(u32, u64), Vec<&FlowSpanEvent>> = BTreeMap::new();
        for s in &self.spans {
            tracks.entry((s.node, s.session)).or_default().push(s);
        }
        let mut named_hosts = std::collections::BTreeSet::new();
        for ((node, session), marks) in &tracks {
            let pid = node + 1;
            if named_hosts.insert(*node) {
                tb.process_name(pid, &format!("host {node}"));
            }
            let tid = *session as u32;
            tb.thread_name(pid, tid, &format!("session {session}"));
            let open = marks.iter().find(|m| m.mark == SpanMark::Open);
            let close = marks.iter().rev().find(|m| m.mark == SpanMark::Close);
            if let (Some(o), Some(c)) = (open, close) {
                tb.complete(
                    &format!("session {session}"),
                    "span",
                    pid,
                    tid,
                    o.at.as_nanos(),
                    c.at.since(o.at),
                );
            }
            for m in marks {
                if matches!(m.mark, SpanMark::Open | SpanMark::Close) {
                    continue;
                }
                tb.instant(&mark_label(m), "span", pid, tid, m.at.as_nanos());
            }
        }
        tb.build()
    }

    /// Write the three artefacts — `<prefix>_fabric.csv`,
    /// `<prefix>_ports.csv`, `<prefix>_trace.json` — into `dir`
    /// (created if missing). Returns the written paths.
    pub fn write_files(&self, dir: &Path, prefix: &str) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let fabric = dir.join(format!("{prefix}_fabric.csv"));
        std::fs::write(&fabric, self.fabric_series_csv())?;
        let ports = dir.join(format!("{prefix}_ports.csv"));
        std::fs::write(&ports, self.port_series_csv())?;
        let trace = dir.join(format!("{prefix}_trace.json"));
        std::fs::write(&trace, self.trace_json())?;
        Ok(vec![fabric, ports, trace])
    }

    /// One-line shape summary for run banners.
    pub fn describe(&self) -> String {
        format!(
            "{} buckets, {} annotations, {} spans, {} flight dumps",
            self.recorder.buckets().len(),
            self.recorder.annotations().len(),
            self.spans.len(),
            self.recorder.dumps().len(),
        )
    }
}

/// Instant-marker name for a span mark (with the peer when one exists).
fn mark_label(m: &FlowSpanEvent) -> String {
    let verb = match m.mark {
        SpanMark::Open => "open",
        SpanMark::Close => "close",
        SpanMark::PullRound => "pull round",
        SpanMark::Repull => "re-pull",
        SpanMark::Retarget => "re-target",
        SpanMark::Stranded => "stranded",
        SpanMark::Unstranded => "revived",
    };
    if m.peer == FlowSpanEvent::NO_PEER {
        verb.to_string()
    } else {
        format!("{verb} h{}", m.peer)
    }
}

/// Close the final bucket and take the recorder (plus caller-gathered
/// spans) out of a finished simulator. `None` when telemetry was off.
pub fn take_run_telemetry<P: SimPayload, A: Agent<P>>(
    sim: &mut Simulator<P, A, Option<Recorder>>,
    spans: Vec<FlowSpanEvent>,
) -> Option<RunTelemetry> {
    sim.finish_telemetry();
    let recorder = sim.telemetry_mut().take()?;
    Some(RunTelemetry { recorder, spans })
}

/// Gather every Polyraptor agent's flow spans, time-sorted (stable, so
/// ties keep the agents' deterministic node order).
pub fn gather_rq_spans(
    sim: &Simulator<PrPayload, PolyraptorAgent, Option<Recorder>>,
) -> Vec<FlowSpanEvent> {
    let mut spans: Vec<FlowSpanEvent> = sim
        .agents()
        .flat_map(|(_, a)| a.spans.iter().copied())
        .collect();
    spans.sort_by_key(|s| s.at.as_nanos());
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{AnomalyKind, FabricEvent, FabricStats, SimTime, TelemetrySink};

    fn sample_run() -> RunTelemetry {
        let mut r = Recorder::new(TelemetryConfig {
            window_ns: 1_000_000,
            ring_capacity: 8,
        });
        TelemetrySink::record(
            &mut r,
            SimTime::from_nanos(500),
            FabricEvent::NodeDown { node: 20 },
        );
        let stats = FabricStats {
            delivered: 100,
            trimmed: 4,
            ..Default::default()
        };
        TelemetrySink::close_bucket(&mut r, &stats, &[]);
        TelemetrySink::record(
            &mut r,
            SimTime::from_nanos(1_200_000),
            FabricEvent::Anomaly(AnomalyKind::Timeout),
        );
        TelemetrySink::finish(&mut r, SimTime::from_nanos(1_500_000), &stats, &[]);
        let at = SimTime::from_nanos;
        let spans = vec![
            FlowSpanEvent {
                at: at(100),
                session: 3,
                node: 1,
                peer: FlowSpanEvent::NO_PEER,
                mark: SpanMark::Open,
            },
            FlowSpanEvent {
                at: at(600_000),
                session: 3,
                node: 1,
                peer: 5,
                mark: SpanMark::Retarget,
            },
            FlowSpanEvent {
                at: at(1_400_000),
                session: 3,
                node: 1,
                peer: FlowSpanEvent::NO_PEER,
                mark: SpanMark::Close,
            },
        ];
        RunTelemetry { recorder: r, spans }
    }

    #[test]
    fn disabled_options_produce_no_recorder() {
        assert!(TelemetryOptions::default().recorder().is_none());
        assert!(TelemetryOptions::enabled_default().recorder().is_some());
    }

    #[test]
    fn fabric_csv_has_rates_per_bucket() {
        let t = sample_run();
        let csv = t.fabric_series_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0].split(',').count(), 6);
        // One data row per bucket (1 closed + 1 final).
        assert_eq!(lines.len(), 1 + t.recorder.buckets().len());
        // First bucket: 100 delivered over 1 ms → 100_000 per second.
        assert!(lines[1].starts_with("1.000000,100000.000000"));
    }

    #[test]
    fn trace_json_contains_annotations_spans_and_counters() {
        let t = sample_run();
        let json = t.trace_json();
        assert!(json.contains("\"cat\":\"fault\""), "fault annotation");
        assert!(json.contains("\"cat\":\"anomaly\""), "anomaly annotation");
        assert!(json.contains("\"ph\":\"C\""), "counter samples");
        // The open→close pair becomes one complete span on the host
        // track, and the retarget mark an instant naming the peer.
        assert!(json.contains("\"ph\":\"X\",\"name\":\"session 3\""));
        assert!(json.contains("re-target h5"));
        assert!(json.contains("host 1"));
    }

    #[test]
    fn describe_counts_everything() {
        let t = sample_run();
        let d = t.describe();
        assert!(d.contains("2 buckets"), "{d}");
        assert!(d.contains("2 annotations"), "{d}");
        assert!(d.contains("3 spans"), "{d}");
        assert!(d.contains("1 flight dumps"), "{d}");
    }
}
