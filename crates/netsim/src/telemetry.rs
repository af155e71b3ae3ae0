//! Fabric telemetry: time-series probes and event annotations — off
//! by default with zero hot-path cost.
//!
//! The simulator is generic over a [`TelemetrySink`], and there are two
//! sinks. The default, [`NoTelemetry`], is a unit type whose methods
//! are empty bodies: the compiler monomorphizes every hook to nothing,
//! so a recorder-less simulator is *the same machine code* as before
//! telemetry existed. The other, `Option<Recorder>`, is the only one
//! that records: `None` costs one always-false time comparison per
//! event, `Some` records (`bench_e2e` reports the recording-on cost as
//! `telemetry.on_wall_ratio`).
//! `workload::run` always installs `Option<Recorder>`; [`NoTelemetry`]
//! remains in use where a simulator is built by hand, e.g. the staged
//! replay in `bench_e2e/src/staged.rs`, which runs its storage
//! workloads on it and its churn workloads on the `None` sink.
//!
//! Recording is **pull-free and event-free**: no probe events are pushed
//! into the simulator's event queue and no RNG is consumed, so enabling
//! telemetry cannot perturb event ordering, sequence numbers, or random
//! draws — byte-identical-per-seed results are preserved structurally,
//! not by luck (property-tested in `tests/identity.rs`). Buckets are
//! closed lazily: when the event loop is about to dispatch an event at
//! or past the open bucket's boundary, the simulator snapshots its
//! counters first. Counters only change at events, so the lazy snapshot
//! is *exact* — identical to what an eager probe at the boundary would
//! have seen.
//!
//! Two data products:
//! - **Buckets** ([`Bucket`]): fixed-window deltas of the fabric
//!   counters (deliver/trim/drop/fault-loss rates, per-layer
//!   utilisation) plus sparse per-port samples (queue depth, per-port
//!   trim/drop/tx deltas) for every switch port that was non-idle.
//! - **Annotations** ([`Annotation`]): timestamped fabric events —
//!   faults, restorations, reroutes, layer re-assignments, and the
//!   anomalies ([`AnomalyKind`]) a workload flags after the run. The
//!   log is the post-mortem: what led up to an anomaly is the entries
//!   before it. The recorder keeps it in time order itself: global
//!   events are recorded as they are applied, while layer
//!   re-assignments, noted during node dispatch on whichever shard ran
//!   it, are filed when the run ends, each after every annotation at or
//!   before its instant.
//!
//! Flow/session spans ([`FlowSpanEvent`]) are recorded by transport
//! agents (gated by their own config), collected post-run, and merged
//! with the recorder's data by the exporters in `workload::telemetry`.

use std::collections::HashMap;

use crate::queue::QueueStats;
use crate::sim::FabricStats;
use crate::time::SimTime;
use crate::topology::RoutingPolicy;

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Bucket width in nanoseconds (default 1 ms).
    pub window_ns: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000,
        }
    }
}

/// What a run flagged as worth a post-mortem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A transport timeout fired (work the fabric failed to carry).
    Timeout,
    /// A session lost a replica to a host failure (stranded until
    /// re-targeted).
    StrandedSession,
}

/// A timestamped fabric event worth annotating on a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// One direction's link went down (fault injection).
    LinkDown {
        /// Transmitting node of the failed direction.
        node: u32,
        /// Port on `node`.
        port: u16,
    },
    /// A previously failed link was restored.
    LinkUp {
        /// Transmitting node of the restored direction.
        node: u32,
        /// Port on `node`.
        port: u16,
    },
    /// A switch or host went down.
    NodeDown {
        /// The victim.
        node: u32,
    },
    /// A switch or host came back.
    NodeUp {
        /// The revived node.
        node: u32,
    },
    /// Silent rate degradation/restoration of a link.
    RateChange {
        /// One end of the link.
        node: u32,
        /// Port on `node`.
        port: u16,
        /// New rate in bits per second (0 = blackhole).
        rate_bps: u64,
    },
    /// The control plane repaired routes in place to the fault mask.
    Reroute {
        /// (layer, access-switch) route columns rebuilt.
        dests_rebuilt: u32,
        /// Restorations healed incrementally in this repair.
        restored: u32,
    },
    /// A flow was moved off a routing layer whose path to the
    /// destination died at a hop.
    LayerReassign {
        /// The flow's id.
        flow: u64,
        /// Destination host.
        dst: u32,
        /// Layer the flow was hashed to.
        from: u8,
        /// Layer it was moved to.
        to: u8,
    },
    /// An anomaly was flagged.
    Anomaly(AnomalyKind),
}

impl FabricEvent {
    /// Coarse category, used as the trace-event `cat` field:
    /// `"fault"`, `"reroute"`, `"layer"`, or `"anomaly"`.
    pub fn category(&self) -> &'static str {
        match self {
            FabricEvent::LinkDown { .. }
            | FabricEvent::LinkUp { .. }
            | FabricEvent::NodeDown { .. }
            | FabricEvent::NodeUp { .. }
            | FabricEvent::RateChange { .. } => "fault",
            FabricEvent::Reroute { .. } => "reroute",
            FabricEvent::LayerReassign { .. } => "layer",
            FabricEvent::Anomaly(_) => "anomaly",
        }
    }

    /// Human-readable label, used as the trace-event name.
    pub fn label(&self) -> String {
        match self {
            FabricEvent::LinkDown { node, port } => format!("link down {node}:{port}"),
            FabricEvent::LinkUp { node, port } => format!("link up {node}:{port}"),
            FabricEvent::NodeDown { node } => format!("node down {node}"),
            FabricEvent::NodeUp { node } => format!("node up {node}"),
            FabricEvent::RateChange {
                node,
                port,
                rate_bps,
            } => format!("rate {node}:{port} -> {rate_bps} bps"),
            FabricEvent::Reroute {
                dests_rebuilt,
                restored,
            } => format!("reroute incremental ({dests_rebuilt} dests, {restored} restored)"),
            FabricEvent::LayerReassign {
                flow,
                dst,
                from,
                to,
            } => {
                format!("flow {flow}->h{dst} layer {from}->{to}")
            }
            FabricEvent::Anomaly(kind) => format!("anomaly: {kind:?}"),
        }
    }
}

/// A [`FabricEvent`] with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: FabricEvent,
}

/// Point-in-time state of one switch port, handed to the sink at bucket
/// boundaries (and at [`TelemetrySink::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct PortProbe {
    /// Owning switch.
    pub node: u32,
    /// Port index on the switch.
    pub port: u16,
    /// Instantaneous queue depth in packets (data + headers).
    pub depth: u32,
    /// Cumulative queue counters at the probe instant.
    pub queue: QueueStats,
}

/// One port's activity inside one bucket (counters are deltas over the
/// bucket window; `depth` is the depth at the bucket's closing edge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortSample {
    /// Owning switch.
    pub node: u32,
    /// Port index on the switch.
    pub port: u16,
    /// Queue depth in packets at the bucket's closing edge.
    pub depth: u32,
    /// Packets enqueued intact during the bucket.
    pub enqueued: u64,
    /// Packets trimmed to headers during the bucket.
    pub trimmed: u64,
    /// Packets dropped during the bucket.
    pub dropped: u64,
    /// Bytes transmitted during the bucket.
    pub tx_bytes: u64,
}

/// One fixed-interval bucket of fabric activity. All counters are
/// deltas over `[start, end)`; events at exactly the closing boundary
/// land in the *next* bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive start of the window.
    pub start: SimTime,
    /// Exclusive end of the window (a final partial bucket ends at the
    /// run's end instead of a window boundary).
    pub end: SimTime,
    /// Packets delivered to host agents during the bucket.
    pub delivered: u64,
    /// Packets trimmed to headers during the bucket.
    pub trimmed: u64,
    /// Packets dropped (congestion) during the bucket.
    pub dropped: u64,
    /// Packets lost to fabric faults during the bucket.
    pub lost_to_fault: u64,
    /// Per-layer unicast forwards during the bucket.
    pub layer_forwarded: [u64; RoutingPolicy::MAX_LAYERS],
    /// Per-layer trims during the bucket.
    pub layer_trimmed: [u64; RoutingPolicy::MAX_LAYERS],
    /// Per-layer drops during the bucket.
    pub layer_dropped: [u64; RoutingPolicy::MAX_LAYERS],
    /// Per-port activity, sparse: only ports with a non-zero depth or a
    /// non-zero counter delta appear (idle fabric ⇒ empty).
    pub ports: Vec<PortSample>,
}

impl Bucket {
    /// Window length in nanoseconds (never zero).
    pub fn width_ns(&self) -> u64 {
        self.end.since(self.start).max(1)
    }

    /// Total queue depth (packets) across sampled ports at the closing
    /// edge.
    pub fn total_depth(&self) -> u64 {
        self.ports.iter().map(|p| u64::from(p.depth)).sum()
    }
}

/// The active telemetry sink: buckets and annotations. Construct with
/// [`Recorder::new`] and install as `Some(recorder)` on a simulator
/// whose sink is `Option<Recorder>`.
#[derive(Debug, Clone)]
pub struct Recorder {
    cfg: TelemetryConfig,
    /// Exclusive end of the currently open bucket, in ns.
    boundary_ns: u64,
    /// Fabric counters at the open bucket's start.
    prev: FabricStats,
    /// Cumulative (enqueued, trimmed, dropped, tx_bytes) per port at the
    /// open bucket's start. Only consulted at bucket boundaries, so the
    /// HashMap's iteration order never matters (probes arrive in the
    /// simulator's deterministic port order).
    prev_ports: HashMap<(u32, u16), (u64, u64, u64, u64)>,
    buckets: Vec<Bucket>,
    annotations: Vec<Annotation>,
    finished: bool,
}

impl Recorder {
    /// A recorder with the given window.
    ///
    /// # Panics
    /// Panics if the window is zero (the boundary would never advance).
    pub fn new(cfg: TelemetryConfig) -> Self {
        assert!(cfg.window_ns > 0, "telemetry window must be positive");
        Self {
            cfg,
            boundary_ns: cfg.window_ns,
            prev: FabricStats::default(),
            prev_ports: HashMap::new(),
            buckets: Vec::new(),
            annotations: Vec::new(),
            finished: false,
        }
    }

    /// Closed buckets so far, in time order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// All annotations recorded, in time order; annotations at one
    /// instant in the order they were recorded. The order is the
    /// recorder's own: each record is filed after every annotation at
    /// or before its instant, however late it arrives.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Close the open bucket at `end`: push the counter deltas since
    /// its start.
    fn push_bucket(&mut self, end: SimTime, s: &FabricStats, ports: &[PortProbe]) {
        let start = SimTime::from_nanos(self.boundary_ns - self.cfg.window_ns);
        let p = &self.prev;
        let mut layer_forwarded = [0u64; RoutingPolicy::MAX_LAYERS];
        let mut layer_trimmed = [0u64; RoutingPolicy::MAX_LAYERS];
        let mut layer_dropped = [0u64; RoutingPolicy::MAX_LAYERS];
        for l in 0..RoutingPolicy::MAX_LAYERS {
            layer_forwarded[l] = s.layer_forwarded[l] - p.layer_forwarded[l];
            layer_trimmed[l] = s.layer_trimmed[l] - p.layer_trimmed[l];
            layer_dropped[l] = s.layer_dropped[l] - p.layer_dropped[l];
        }
        let mut samples = Vec::new();
        for probe in ports {
            let key = (probe.node, probe.port);
            let q = probe.queue;
            let now = (q.enqueued, q.trimmed, q.dropped, q.tx_bytes);
            let was = self.prev_ports.insert(key, now).unwrap_or_default();
            let sample = PortSample {
                node: probe.node,
                port: probe.port,
                depth: probe.depth,
                enqueued: now.0 - was.0,
                trimmed: now.1 - was.1,
                dropped: now.2 - was.2,
                tx_bytes: now.3 - was.3,
            };
            if sample.depth > 0
                || sample.enqueued > 0
                || sample.trimmed > 0
                || sample.dropped > 0
                || sample.tx_bytes > 0
            {
                samples.push(sample);
            }
        }
        self.buckets.push(Bucket {
            start,
            end,
            delivered: s.delivered - p.delivered,
            trimmed: s.trimmed - p.trimmed,
            dropped: s.dropped - p.dropped,
            lost_to_fault: s.lost_to_fault - p.lost_to_fault,
            layer_forwarded,
            layer_trimmed,
            layer_dropped,
            ports: samples,
        });
        self.prev = *s;
    }
}

/// The simulator's telemetry hook surface. Implementations must be
/// cheap when disabled: `next_boundary` is the only method called on
/// the per-event path (once, for a single time comparison).
pub trait TelemetrySink {
    /// Exclusive end of the currently open bucket. The simulator closes
    /// buckets *before* dispatching any event at or past this instant.
    /// Return [`SimTime::MAX`] to disable sampling entirely.
    fn next_boundary(&self) -> SimTime {
        SimTime::MAX
    }

    /// Close the bucket ending at `next_boundary()` against the current
    /// cumulative counters and per-switch-port probes. Implementations
    /// must advance `next_boundary` by one window, or the event loop's
    /// catch-up would never terminate.
    fn close_bucket(&mut self, _stats: &FabricStats, _ports: &[PortProbe]) {}

    /// Record a timestamped fabric event. A recording sink keeps its
    /// log in time order: an event may be recorded after later ones
    /// (the event loop files node-dispatch notes when a run ends).
    fn record(&mut self, _at: SimTime, _event: FabricEvent) {}

    /// End of run: close the final (partial) bucket at `now`.
    fn finish(&mut self, _now: SimTime, _stats: &FabricStats, _ports: &[PortProbe]) {}

    /// Whether anything is recording — lets callers skip probe
    /// collection wholesale.
    fn enabled(&self) -> bool {
        false
    }
}

/// The default sink: a unit type whose empty hook bodies monomorphize
/// away, leaving the simulator's hot path untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl TelemetrySink for NoTelemetry {}

/// The runtime-switchable sink, and the only recording one: `None`
/// costs one always-false boundary comparison per event; `Some`
/// records.
impl TelemetrySink for Option<Recorder> {
    fn next_boundary(&self) -> SimTime {
        match self {
            Some(r) => SimTime::from_nanos(r.boundary_ns),
            None => SimTime::MAX,
        }
    }

    fn close_bucket(&mut self, stats: &FabricStats, ports: &[PortProbe]) {
        if let Some(r) = self {
            r.push_bucket(SimTime::from_nanos(r.boundary_ns), stats, ports);
            r.boundary_ns += r.cfg.window_ns;
        }
    }

    fn record(&mut self, at: SimTime, event: FabricEvent) {
        if let Some(r) = self {
            // After every annotation at or before `at`: the log is in
            // time order whatever order the simulator files in.
            let i = r.annotations.partition_point(|a| a.at <= at);
            r.annotations.insert(i, Annotation { at, event });
        }
    }

    fn finish(&mut self, now: SimTime, stats: &FabricStats, ports: &[PortProbe]) {
        let Some(r) = self else { return };
        if r.finished {
            return;
        }
        r.finished = true;
        // `now >= start` always holds (the event loop closes buckets
        // before dispatching past them), but `now == start` is possible
        // when the run's last event sat exactly on a boundary — its
        // effects still belong to the final bucket, so emit it even
        // zero-width.
        r.push_bucket(now, stats, ports);
    }

    fn enabled(&self) -> bool {
        self.is_some()
    }
}

/// What happened to a session, from its receiver's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanMark {
    /// The receiver opened the session (first pull scheduling).
    Open,
    /// The session decoded/completed.
    Close,
    /// The keep-alive sweep opened a recovery round for a quiet
    /// session.
    PullRound,
    /// A recovery re-pull was issued to a stranded sender (`peer`).
    Repull,
    /// A dead replica's remaining share was re-targeted at a surviving
    /// sender (`peer`).
    Retarget,
    /// A sender (`peer`) was written off after a host failure; the
    /// session is stranded until re-targeted.
    Stranded,
    /// A stranded sender (`peer`) revived (scripted host repair): the
    /// session re-admitted it as a pull target. No credit crosses the
    /// strand/revive boundary — the revived sender earns licenses only
    /// through the keep-alive sweep's probing re-pulls.
    Unstranded,
}

/// One mark in a flow/session span, recorded by a transport agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpanEvent {
    /// When the mark was recorded.
    pub at: SimTime,
    /// Session id.
    pub session: u64,
    /// The recording host (the session's receiver).
    pub node: u32,
    /// Peer host involved, if any (`u32::MAX` for session-level marks).
    pub peer: u32,
    /// What happened.
    pub mark: SpanMark,
}

impl FlowSpanEvent {
    /// Sentinel for marks with no specific peer.
    pub const NO_PEER: u32 = u32::MAX;
}

/// Builds a Chrome-trace ("Trace Event Format") JSON document by hand —
/// the workspace has no serde, and the format is simple enough that
/// string assembly with escaping is the honest implementation. The
/// output loads in Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → the trace format's microsecond timestamps.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the process `pid` (shown as a track group in Perfetto).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Name the thread `(pid, tid)` (one track in Perfetto).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// A complete ("X") span from `start_ns` lasting `dur_ns`.
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{},\"dur\":{}}}",
            json_escape(name),
            json_escape(cat),
            ts_us(start_ns),
            ts_us(dur_ns.max(1)),
        ));
    }

    /// An instant ("i") marker at `at_ns`, thread-scoped.
    pub fn instant(&mut self, name: &str, cat: &str, pid: u32, tid: u32, at_ns: u64) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{},\"s\":\"t\"}}",
            json_escape(name),
            json_escape(cat),
            ts_us(at_ns),
        ));
    }

    /// A counter ("C") sample at `at_ns`; `series` is (name, value)
    /// pairs plotted as stacked series of the counter track `name`.
    pub fn counter(&mut self, name: &str, pid: u32, at_ns: u64, series: &[(&str, f64)]) {
        let args = series
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(",");
        self.events.push(format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":{pid},\"ts\":{},\"args\":{{{args}}}}}",
            json_escape(name),
            ts_us(at_ns),
        ));
    }

    /// Assemble the final JSON document.
    pub fn build(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Format an f64 as JSON (finite; NaN/inf would corrupt the document).
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value in trace");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(node: u32, port: u16, depth: u32, trimmed: u64) -> PortProbe {
        PortProbe {
            node,
            port,
            depth,
            queue: QueueStats {
                enqueued: 10,
                trimmed,
                dropped: 0,
                tx_bytes: 1500,
                max_depth: depth as usize,
            },
        }
    }

    /// The recorder inside a recording sink.
    fn on(sink: &Option<Recorder>) -> &Recorder {
        sink.as_ref().expect("recording")
    }

    #[test]
    fn bucket_boundaries_align_to_windows() {
        let mut r = Some(Recorder::new(TelemetryConfig { window_ns: 100 }));
        // The simulator closes buckets before dispatching an event at or
        // past the boundary; emulate an event at t=250 (crosses two
        // boundaries) and a run ending at t=310.
        let mut stats = FabricStats::default();
        assert_eq!(TelemetrySink::next_boundary(&r), SimTime::from_nanos(100));
        stats.delivered = 7;
        TelemetrySink::close_bucket(&mut r, &stats, &[]);
        assert_eq!(TelemetrySink::next_boundary(&r), SimTime::from_nanos(200));
        TelemetrySink::close_bucket(&mut r, &stats, &[]);
        assert_eq!(TelemetrySink::next_boundary(&r), SimTime::from_nanos(300));
        stats.delivered = 9;
        TelemetrySink::finish(&mut r, SimTime::from_nanos(310), &stats, &[]);
        let b = on(&r).buckets();
        assert_eq!(b.len(), 3);
        assert_eq!((b[0].start.as_nanos(), b[0].end.as_nanos()), (0, 100));
        assert_eq!((b[1].start.as_nanos(), b[1].end.as_nanos()), (100, 200));
        // Final partial bucket runs from the last closed boundary to the
        // run's end, not to the next window edge.
        assert_eq!((b[2].start.as_nanos(), b[2].end.as_nanos()), (200, 310));
        assert_eq!(b[0].delivered, 7);
        assert_eq!(b[1].delivered, 0);
        assert_eq!(b[2].delivered, 2);
        // finish() is idempotent: a second call adds nothing.
        TelemetrySink::finish(&mut r, SimTime::from_nanos(400), &stats, &[]);
        assert_eq!(on(&r).buckets().len(), 3);
    }

    #[test]
    fn port_samples_are_deltas_and_sparse() {
        let mut r = Some(Recorder::new(TelemetryConfig { window_ns: 100 }));
        let stats = FabricStats::default();
        TelemetrySink::close_bucket(&mut r, &stats, &[probe(5, 1, 3, 2), probe(5, 2, 0, 0)]);
        // Port (5,2) had depth 0 but non-zero cumulative counters on its
        // first probe — it appears once, then goes quiet.
        assert_eq!(on(&r).buckets()[0].ports.len(), 2);
        TelemetrySink::close_bucket(&mut r, &stats, &[probe(5, 1, 0, 2), probe(5, 2, 0, 0)]);
        // Second bucket: port 1's trim count did not move and its depth
        // is 0; port 2 likewise — only deltas appear, so nothing does.
        assert!(on(&r).buckets()[1].ports.is_empty());
        let first = &on(&r).buckets()[0].ports[0];
        assert_eq!((first.node, first.port, first.depth), (5, 1, 3));
        assert_eq!(first.trimmed, 2);
    }

    #[test]
    fn anomaly_is_the_newest_annotation() {
        let mut r = Some(Recorder::new(TelemetryConfig { window_ns: 1_000 }));
        let at = SimTime::from_nanos;
        let events = [
            (at(1), FabricEvent::LinkDown { node: 9, port: 2 }),
            (
                at(2),
                FabricEvent::Reroute {
                    dests_rebuilt: 4,
                    restored: 0,
                },
            ),
            (at(3), FabricEvent::Anomaly(AnomalyKind::Timeout)),
        ];
        for (t, event) in events {
            TelemetrySink::record(&mut r, t, event);
        }
        // The log holds what led up to the anomaly, the anomaly last.
        let log: Vec<_> = on(&r)
            .annotations()
            .iter()
            .map(|a| (a.at, a.event))
            .collect();
        assert_eq!(log, events);
    }

    #[test]
    fn records_are_filed_in_time_order() {
        let mut r = Some(Recorder::new(TelemetryConfig { window_ns: 1_000 }));
        let at = SimTime::from_nanos;
        let down = FabricEvent::LinkDown { node: 9, port: 2 };
        let up = FabricEvent::LinkUp { node: 9, port: 2 };
        let moved = |flow| FabricEvent::LayerReassign {
            flow,
            dst: 4,
            from: 0,
            to: 1,
        };
        // Out of time order, and twice at an instant already logged.
        for (t, event) in [
            (at(5), down),
            (at(9), up),
            (at(2), moved(1)),
            (at(5), moved(2)),
            (at(5), moved(3)),
        ] {
            TelemetrySink::record(&mut r, t, event);
        }
        let log: Vec<_> = on(&r)
            .annotations()
            .iter()
            .map(|a| (a.at, a.event))
            .collect();
        assert_eq!(
            log,
            [
                (at(2), moved(1)),
                (at(5), down),
                (at(5), moved(2)),
                (at(5), moved(3)),
                (at(9), up),
            ]
        );
    }

    #[test]
    fn disabled_option_sink_never_samples() {
        let sink: Option<Recorder> = None;
        assert_eq!(TelemetrySink::next_boundary(&sink), SimTime::MAX);
        assert!(!TelemetrySink::enabled(&sink));
    }

    #[test]
    fn trace_builder_emits_valid_shape() {
        let mut tb = TraceBuilder::new();
        tb.process_name(0, "fabric");
        tb.instant("link down \"9\":2", "fault", 0, 0, 1_500);
        tb.complete("session 3", "span", 12, 3, 1_000, 2_500);
        tb.counter(
            "trim rate",
            0,
            2_000,
            &[("trims_per_s", 1234.5), ("drops", 0.0)],
        );
        let json = tb.build();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        // The quote inside the instant name is escaped.
        assert!(json.contains("link down \\\"9\\\":2"));
        // 1500 ns → 1.500 µs.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"trims_per_s\":1234.500"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn event_labels_and_categories() {
        assert_eq!(FabricEvent::NodeDown { node: 3 }.category(), "fault");
        let reroute = FabricEvent::Reroute {
            dests_rebuilt: 10,
            restored: 1,
        };
        assert_eq!(reroute.category(), "reroute");
        // Trace exports name every reroute by this label.
        assert_eq!(
            reroute.label(),
            "reroute incremental (10 dests, 1 restored)"
        );
        assert_eq!(
            FabricEvent::LayerReassign {
                flow: 1,
                dst: 2,
                from: 0,
                to: 1
            }
            .category(),
            "layer"
        );
        assert_eq!(
            FabricEvent::Anomaly(AnomalyKind::StrandedSession).category(),
            "anomaly"
        );
        assert!(FabricEvent::NodeDown { node: 3 }
            .label()
            .contains("node down 3"));
    }
}
