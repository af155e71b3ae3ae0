//! The run path: the simulated fabric, the two transports' knobs, and
//! the one run function, [`run`], that executes a [`Run`] — a scenario's
//! sessions, faults and notices over one transport — and returns a
//! [`RunReport`]. Every scenario type builds its [`Run`] with
//! `build(&Fabric, Transport)`, so the Polyraptor and TCP halves of an
//! experiment differ only in [`Transport`].

use std::collections::BTreeMap;

use netsim::{
    Agent, AnomalyKind, FabricStats, FaultPlan, FlowSpanEvent, LayerAssign, NodeId, Pcg32,
    QueueConfig, Recorder, RouteMode, RoutingPolicy, SimConfig, SimPayload, SimTime, Simulator,
    TelemetrySink, Topology,
};
use polyraptor::{
    start_token, PolyraptorAgent, PrConfig, PrPayload, SessionId, SessionSpec, LINK_RATE_BPS,
};
use tcpsim::{install_connection, ConnId, ConnSpec, TcpAgent, TcpConfig, TcpPayload};

use crate::scenario::{LogicalSession, Pattern, StorageScenario};
use crate::telemetry::{gather_rq_spans, take_run_telemetry, RunTelemetry, TelemetryOptions};

/// The simulated fabric: shape plus link parameters. The paper
/// evaluates on a fat-tree; leaf–spine and Jellyfish variants exist so
/// scenarios can probe transports on oversubscribed and low-diameter
/// random fabrics (where non-minimal routing matters).
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// k-ary fat-tree (paper: k = 10 → 250 hosts, 1 Gbps, 10 µs).
    FatTree {
        /// Fat-tree arity (even).
        k: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Two-tier leaf–spine with oversubscribed uplinks.
    LeafSpine {
        /// Leaf (top-of-rack) switches.
        leaves: usize,
        /// Spine switches (every leaf connects to every spine).
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Oversubscription ratio (1.0 = non-blocking, 4.0 = 4:1).
        oversub: f64,
        /// Host-link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Jellyfish-style seeded random regular graph of switches.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree of the random regular graph.
        net_degree: usize,
        /// Hosts attached to each switch.
        hosts_per_switch: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
        /// Wiring seed (same seed ⇒ identical graph).
        seed: u64,
    },
}

impl Fabric {
    /// The paper's 250-server fat-tree.
    pub fn paper() -> Self {
        Self::fat_tree(10)
    }

    /// A 16-host fat-tree for tests and quick runs.
    pub fn small() -> Self {
        Self::fat_tree(4)
    }

    /// A k-ary fat-tree at the paper's link parameters.
    pub fn fat_tree(k: usize) -> Self {
        Self::FatTree {
            k,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 16-host, 2:1-oversubscribed leaf–spine for tests and quick
    /// runs (heterogeneous link rates: uplinks at 1 Gbps x 4 / 4).
    pub fn small_leaf_spine() -> Self {
        Self::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
            oversub: 2.0,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 1024-host k=16 fat-tree — the large-fabric scale run the flat
    /// CSR route arenas make practical.
    pub fn large() -> Self {
        Self::fat_tree(16)
    }

    /// A 5000-host Jellyfish (250 switches x 20 hosts, network degree
    /// 12) — the random-graph counterpart of the large-fabric run.
    pub fn large_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 250,
            net_degree: 12,
            hosts_per_switch: 20,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// A 16-host Jellyfish fabric for tests and quick runs.
    pub fn small_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 8,
            net_degree: 3,
            hosts_per_switch: 2,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// Build the topology routed under single-layer minimal routing.
    pub fn build(&self) -> Topology {
        self.build_with_policy(RoutingPolicy::minimal())
    }

    /// Build the topology routed under `policy`: the generator routes
    /// once, under the policy asked for, and nothing is recomputed.
    pub fn build_with_policy(&self, policy: RoutingPolicy) -> Topology {
        match *self {
            Self::FatTree {
                k,
                rate_bps,
                prop_ns,
            } => Topology::fat_tree(k, rate_bps, prop_ns, policy),
            Self::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                oversub,
                rate_bps,
                prop_ns,
            } => Topology::leaf_spine(
                leaves,
                spines,
                hosts_per_leaf,
                oversub,
                rate_bps,
                prop_ns,
                policy,
            ),
            Self::Jellyfish {
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
            } => Topology::jellyfish(
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
                policy,
            ),
        }
    }

    /// Number of hosts the fabric will have.
    pub fn host_count(&self) -> usize {
        match *self {
            Self::FatTree { k, .. } => k * k * k / 4,
            Self::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Self::Jellyfish {
                switches,
                hosts_per_switch,
                ..
            } => switches * hosts_per_switch,
        }
    }

    /// Human-readable shape summary for run banners.
    pub fn describe(&self) -> String {
        match *self {
            Self::FatTree { k, .. } => format!("k={k} fat-tree ({} hosts)", self.host_count()),
            Self::LeafSpine {
                leaves,
                spines,
                oversub,
                ..
            } => format!(
                "{leaves}x{spines} leaf-spine {oversub}:1 ({} hosts)",
                self.host_count()
            ),
            Self::Jellyfish {
                switches,
                net_degree,
                ..
            } => format!(
                "jellyfish {switches}sw/deg{net_degree} ({} hosts)",
                self.host_count()
            ),
        }
    }
}

/// One transport-flow result: the unit the paper's figures plot.
///
/// The paper ranks "transport sessions (flows)": in a replication write
/// with R replicas every sender→replica flow is its own point (R points
/// per op); a multi-source read is one flow at the client. The op-level
/// view (replication complete when the *last* replica holds the object)
/// is available via [`op_results`].
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Logical session index (shared by the flows of one op).
    pub session: u32,
    /// Bytes this flow delivered to its application endpoint.
    pub bytes: usize,
    /// Initiation time.
    pub start: SimTime,
    /// When this flow's endpoint finished.
    pub finish: SimTime,
    /// Background flag.
    pub background: bool,
}

impl TransferResult {
    /// Application goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        (self.bytes as f64 * 8.0) / (self.finish - self.start) as f64
    }
}

/// Foreground goodputs from a result set (what the figures show).
pub fn foreground_goodputs(results: &[TransferResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| !r.background)
        .map(|r| r.goodput_gbps())
        .collect()
}

/// Collapse per-flow results into op-level results: an op starts with
/// its session and finishes when the last of its flows finishes; its
/// byte count is one object copy. This is the stricter "all replicas
/// durable" metric used by the ablation benches.
pub fn op_results(flows: &[TransferResult], object_bytes: usize) -> Vec<TransferResult> {
    let mut ops: BTreeMap<u32, TransferResult> = BTreeMap::new();
    for f in flows {
        let e = ops.entry(f.session).or_insert_with(|| TransferResult {
            session: f.session,
            bytes: object_bytes,
            start: f.start,
            finish: f.finish,
            background: f.background,
        });
        e.finish = e.finish.max(f.finish);
        e.start = e.start.min(f.start);
    }
    ops.into_values().collect()
}

// ---------------------------------------------------------------------------
// Polyraptor runner
// ---------------------------------------------------------------------------

/// Polyraptor-side knobs for a run.
#[derive(Debug, Clone, Copy)]
pub struct RqRunOptions {
    /// Protocol configuration.
    pub pr: PrConfig,
    /// Switch queue (default NDP trimming).
    pub switch_queue: QueueConfig,
    /// Path selection (default per-packet spraying).
    pub route: RouteMode,
    /// Layered routing policy (default single-layer minimal/ECMP;
    /// `RoutingPolicy::layered(n, seed)` adds FatPaths-style
    /// path-diversity layers, useful on Jellyfish fabrics where minimal
    /// path diversity is structurally low).
    pub policy: RoutingPolicy,
    /// Flow→layer assignment strategy (default hash-per-flow; only
    /// meaningful with a multi-layer policy).
    pub layer_assign: LayerAssign,
    /// Telemetry recording (default off). Every runner honours it and
    /// returns a [`crate::RunTelemetry`] in its [`RunReport`]; enabling
    /// it also turns on the agents' flow spans.
    pub telemetry: TelemetryOptions,
    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// item 12).
    pub parallelism: usize,
    /// Event-loop shards (0 = available cores, 1 = one shard, inline
    /// on the calling thread, the default). Byte-identical per seed at
    /// every setting — every shard count replays one schedule — so
    /// this is purely a wall-clock knob.
    pub shards: usize,
}

impl Default for RqRunOptions {
    /// The NDP fabric [`SimConfig::ndp`] describes, minimal routing.
    fn default() -> Self {
        let ndp = SimConfig::ndp(0);
        Self {
            pr: PrConfig::paper_default(),
            switch_queue: ndp.switch_queue,
            route: ndp.route,
            policy: RoutingPolicy::minimal(),
            layer_assign: ndp.layer_assign,
            telemetry: TelemetryOptions::default(),
            parallelism: ndp.parallelism,
            shards: ndp.shards,
        }
    }
}

impl RqRunOptions {
    /// The Polyraptor arm of [`run`]: an NDP fabric over `topo`
    /// configured from these options — the one place they become a
    /// [`SimConfig`] — with an agent on every host, seeded in host order
    /// from `agent_seeds`. A recording sink also turns on the agents'
    /// flow spans.
    fn simulator(
        &self,
        topo: Topology,
        sim_seed: u64,
        agent_seeds: &mut Pcg32,
        reroute_delay_ns: u64,
    ) -> Simulator<PrPayload, PolyraptorAgent, Option<Recorder>> {
        // Receivers pace one pull per symbol packet at LINK_RATE_BPS; on
        // any other access rate the run would be silently mis-paced.
        for &h in topo.hosts() {
            for port in topo.node_ports(h) {
                assert!(
                    port.rate_bps == LINK_RATE_BPS,
                    "host {} has a {} bps access link, but Polyraptor paces its pulls for {} bps",
                    h.0,
                    port.rate_bps,
                    LINK_RATE_BPS
                );
            }
        }
        let mut cfg = SimConfig::ndp(sim_seed);
        cfg.switch_queue = self.switch_queue;
        cfg.route = self.route;
        cfg.layer_assign = self.layer_assign;
        cfg.reroute_delay_ns = reroute_delay_ns;
        cfg.parallelism = self.parallelism;
        cfg.shards = self.shards;
        let sink = self.telemetry.recorder();
        let mut pr = self.pr;
        pr.record_spans |= sink.enabled();
        let mut sim = Simulator::with_telemetry(topo, cfg, sink);
        for h in sim.topology().hosts().to_vec() {
            let seed = agent_seeds.next_u64();
            sim.set_agent(h, PolyraptorAgent::new(h, pr, seed));
        }
        sim
    }
}

/// Trees registered per multicast session — symbols are sprayed across
/// them, the multicast analogue of NDP's per-packet multipath.
pub const MULTICAST_TREES: usize = 8;

/// Translate logical sessions into Polyraptor session specs (registering
/// multicast groups as needed). Write ⇒ multicast replication (unicast
/// for one replica); Read ⇒ multi-source fetch. Background sessions are
/// unicast writes to the session's first replica.
pub fn build_rq_specs<A: netsim::Agent<polyraptor::PrPayload>, T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, A, T>,
    sessions: &[LogicalSession],
    pattern: Pattern,
) -> Vec<SessionSpec> {
    sessions
        .iter()
        .map(|ls| {
            let id = SessionId(ls.index);
            let mut spec = if ls.background {
                // Background load: plain unicast push to the primary.
                SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
            } else {
                match pattern {
                    Pattern::Write => {
                        if ls.replicas.len() == 1 {
                            SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
                        } else {
                            // Several trees per group: symbols spray
                            // across them (multipath multicast).
                            let groups: Vec<_> = (0..MULTICAST_TREES)
                                .map(|_| sim.register_group(ls.client, &ls.replicas))
                                .collect();
                            SessionSpec::multicast(
                                id,
                                ls.bytes,
                                ls.client,
                                ls.replicas.clone(),
                                groups,
                                ls.start,
                            )
                        }
                    }
                    Pattern::Read => SessionSpec::multi_source(
                        id,
                        ls.bytes,
                        ls.replicas.clone(),
                        ls.client,
                        ls.start,
                    ),
                }
            };
            spec.background = ls.background;
            spec
        })
        .collect()
}

/// Install a Polyraptor session at every participant and schedule its
/// start timer everywhere (receivers need it to arm their keep-alive).
pub fn install_rq<T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, PolyraptorAgent, T>,
    spec: &SessionSpec,
) {
    for &h in spec.senders.iter().chain(&spec.receivers) {
        sim.agent_mut(h).install(spec.clone());
        sim.schedule_timer(h, spec.start, start_token(spec.id));
    }
}

// ---------------------------------------------------------------------------
// TCP runner
// ---------------------------------------------------------------------------

/// TCP-side knobs for a run.
#[derive(Debug, Clone, Copy)]
pub struct TcpRunOptions {
    /// Switch queue (default deep drop-tail).
    pub switch_queue: QueueConfig,
    /// Path selection (default per-flow ECMP).
    pub route: RouteMode,
    /// Layered routing policy (default single-layer minimal/ECMP).
    pub policy: RoutingPolicy,
    /// Telemetry recording (default off). Every runner honours it and
    /// returns a [`crate::RunTelemetry`] in its [`RunReport`].
    pub telemetry: TelemetryOptions,
    /// Accepted and ignored — route columns are rebuilt on the calling
    /// thread; pinned by `bench_e2e` until its next revision (ROADMAP
    /// item 12).
    pub parallelism: usize,
    /// Event-loop shards (0 = available cores, 1 = one shard, inline
    /// on the calling thread, the default). Byte-identical per seed at
    /// every setting.
    pub shards: usize,
}

impl Default for TcpRunOptions {
    /// The classic fabric [`SimConfig::classic`] describes, minimal
    /// routing.
    fn default() -> Self {
        let classic = SimConfig::classic(0);
        Self {
            switch_queue: classic.switch_queue,
            route: classic.route,
            policy: RoutingPolicy::minimal(),
            telemetry: TelemetryOptions::default(),
            parallelism: classic.parallelism,
            shards: classic.shards,
        }
    }
}

impl TcpRunOptions {
    /// The TCP arm of [`run`]: a classic fabric over `topo` configured
    /// from these options — the one place they become a [`SimConfig`] —
    /// with an agent on every host.
    fn simulator(
        &self,
        topo: Topology,
        sim_seed: u64,
        reroute_delay_ns: u64,
    ) -> Simulator<TcpPayload, TcpAgent, Option<Recorder>> {
        let mut cfg = SimConfig::classic(sim_seed);
        cfg.switch_queue = self.switch_queue;
        cfg.route = self.route;
        cfg.reroute_delay_ns = reroute_delay_ns;
        cfg.parallelism = self.parallelism;
        cfg.shards = self.shards;
        let mut sim = Simulator::with_telemetry(topo, cfg, self.telemetry.recorder());
        for h in sim.topology().hosts().to_vec() {
            sim.set_agent(h, TcpAgent::new(h, TcpConfig::paper_default()));
        }
        sim
    }
}

/// Translate logical sessions into TCP connection sets, emulating the
/// paper's baselines: Write ⇒ multi-unicast (the client sends one full
/// copy per replica); Read ⇒ partitioned fetch (each replica returns
/// `1/R` of the object, no coordination). Background sessions are
/// single connections.
pub fn build_tcp_conns(sessions: &[LogicalSession], pattern: Pattern) -> Vec<ConnSpec> {
    let mut conns = Vec::new();
    let mut next_id = 0u32;
    for ls in sessions {
        let mut add = |sender: NodeId, receiver: NodeId, bytes: u64| {
            conns.push(ConnSpec {
                id: ConnId(next_id),
                session: ls.index,
                bytes,
                sender,
                receiver,
                start: ls.start,
                background: ls.background,
            });
            next_id += 1;
        };
        if ls.background {
            add(ls.client, ls.replicas[0], ls.bytes as u64);
            continue;
        }
        match pattern {
            Pattern::Write => {
                // Multi-unicast: one full copy per replica.
                for &r in &ls.replicas {
                    add(ls.client, r, ls.bytes as u64);
                }
            }
            Pattern::Read => {
                // Partitioned fetch: replica i returns its stripe.
                let shares = stripe(ls.bytes as u64, ls.replicas.len());
                for (&r, &sh) in ls.replicas.iter().zip(&shares) {
                    add(r, ls.client, sh);
                }
            }
        }
    }
    conns
}

/// Split `bytes` into `n` near-equal positive stripes, the way a
/// multi-source session splits its source symbols
/// ([`polyraptor::session::source_partition`]).
pub fn stripe(bytes: u64, n: usize) -> Vec<u64> {
    assert!(n >= 1 && bytes >= n as u64, "stripe too small");
    let bytes = usize::try_from(bytes).expect("stripe larger than the address space");
    (0..n)
        .map(|i| {
            let (lo, hi) = polyraptor::session::source_partition(bytes, n, i);
            (hi - lo) as u64
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The run path
// ---------------------------------------------------------------------------

/// The transport a [`Run`] carries its sessions over: the one thing
/// that differs between the two halves of every paired experiment.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// Polyraptor: multicast writes, multi-source reads.
    Rq(RqRunOptions),
    /// The TCP baseline: multi-unicast writes, partitioned reads.
    Tcp(TcpRunOptions),
}

impl Transport {
    /// The routing policy the run's fabric is built under.
    pub(crate) fn policy(&self) -> RoutingPolicy {
        match self {
            Self::Rq(opts) => opts.policy,
            Self::Tcp(opts) => opts.policy,
        }
    }
}

/// One simulation, fully described. Each scenario builds one per
/// transport, identical except for [`Run::transport`], and [`run`]
/// executes it.
#[derive(Debug, Clone)]
pub struct Run {
    /// The routed fabric.
    pub topo: Topology,
    /// The logical sessions.
    pub sessions: Vec<LogicalSession>,
    /// How the sessions map onto the transport ([`build_rq_specs`],
    /// [`build_tcp_conns`]).
    pub pattern: Pattern,
    /// Scripted faults.
    pub faults: FaultPlan,
    /// Control-plane convergence after a detected fault.
    pub reroute_delay_ns: u64,
    /// Agent timers `(host, at, token)` scheduled after the sessions:
    /// the churn scenario's host-failure and revival notices.
    pub notices: Vec<(NodeId, SimTime, u64)>,
    /// The simulator's seed.
    pub sim_seed: u64,
    /// Polyraptor agent seeds, one draw per host in host order.
    pub agent_seeds: Pcg32,
    /// The transport and its knobs.
    pub transport: Transport,
}

impl Run {
    /// A run without faults or notices: the simulator seeded from
    /// `seed ^ sim_salt`, the agents from `seed ^ 0xA6E27`.
    pub(crate) fn healthy(
        topo: Topology,
        sessions: Vec<LogicalSession>,
        pattern: Pattern,
        seed: u64,
        sim_salt: u64,
        transport: Transport,
    ) -> Self {
        Self {
            topo,
            sessions,
            pattern,
            faults: FaultPlan::new(),
            reroute_delay_ns: 0,
            notices: Vec::new(),
            sim_seed: seed ^ sim_salt,
            agent_seeds: Pcg32::new(seed ^ 0xA6E27),
            transport,
        }
    }
}

/// Percentiles of a latency sample: the post-fault recovery latencies
/// (failure instant → flow completion) of [`RunReport::recovery`], or
/// the completion times of [`RunReport::completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Flows in the sample.
    pub flows: usize,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst-case latency (the completion tail).
    pub max_ns: u64,
}

impl RecoveryStats {
    /// Summarize a latency (or duration) sample into p50/p99/max;
    /// `None` for an empty sample. Sorts in place — callers need not
    /// pre-sort.
    pub fn from_latencies(mut lat: Vec<u64>) -> Option<Self> {
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let pick = |p: f64| polyraptor::metrics::percentile_sorted(&lat, p);
        Some(Self {
            flows: lat.len(),
            p50_ns: pick(50.0),
            p99_ns: pick(99.0),
            max_ns: *lat.last().expect("non-empty"),
        })
    }
}

/// Everything a run reports, for either transport. A counter the
/// transport or the scenario has no use for stays 0.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-flow results, sorted by session: one per replica of a write
    /// and one per stripe of a TCP read — the paper's "transport session
    /// (flow)" unit — and one per Polyraptor read.
    pub flows: Vec<TransferResult>,
    /// Fabric counters: packet fates, `reroutes`, `trees_repaired`…
    pub fabric: FabricStats,
    /// TCP sender retransmission timeouts (structurally 0 for
    /// Polyraptor — recovery is pull-paced, never timer-paced).
    pub timeouts: u64,
    /// (session, dead sender) strandings observed across all
    /// Polyraptor clients.
    pub stranded_sessions: u64,
    /// Strandings re-targeted at a surviving replica.
    pub retargeted_sessions: u64,
    /// Strandings undone by a host-revival notice: the revived sender
    /// was re-admitted to a still-open session (no credit is minted
    /// across the strand/revive boundary).
    pub unstranded_sessions: u64,
    /// Symbols re-pulled from survivors on re-target, summed over all
    /// sessions (each bounded by its decode's remaining need).
    pub retarget_symbols: u64,
    /// Down-events of the run's fault plan (failure instants, all
    /// classes).
    pub fault_instants: Vec<SimTime>,
    /// Host failures the plan scripted.
    pub host_failures: usize,
    /// Recorded telemetry, when the transport's options enabled it.
    pub telemetry: Option<RunTelemetry>,
}

impl RunReport {
    /// When the last flow finished.
    pub fn makespan(&self) -> SimTime {
        self.flows
            .iter()
            .map(|f| f.finish)
            .max()
            .expect("at least one flow")
    }

    /// Flows spanning `at` (in flight when a failure struck).
    pub fn in_flight_at(&self, at: SimTime) -> usize {
        self.flows
            .iter()
            .filter(|f| f.start < at && f.finish > at)
            .count()
    }

    /// Per-flow recovery latencies: for every fault instant and every
    /// flow in flight at it, the time from the fault to that flow's
    /// completion, sorted ascending. Empty when no flow spanned a fault.
    pub fn recovery_latencies_ns(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .fault_instants
            .iter()
            .flat_map(|&at| {
                self.flows
                    .iter()
                    .filter(move |f| f.start < at && f.finish > at)
                    .map(move |f| f.finish.as_nanos() - at.as_nanos())
            })
            .collect();
        lat.sort_unstable();
        lat
    }

    /// Summary of the post-fault completion tail, or `None` when no
    /// flow spanned a fault. This is the headline fast-recovery metric:
    /// with batched sweep re-pulls the max is bounded by the
    /// control-plane convergence window plus a near-healthy transfer
    /// remainder.
    pub fn recovery(&self) -> Option<RecoveryStats> {
        RecoveryStats::from_latencies(self.recovery_latencies_ns())
    }

    /// Completion-time percentiles over every flow.
    pub fn completion(&self) -> RecoveryStats {
        RecoveryStats::from_latencies(
            self.flows
                .iter()
                .map(|f| f.finish.as_nanos() - f.start.as_nanos())
                .collect(),
        )
        .expect("run has flows")
    }

    /// The report with its flows collapsed to one per session
    /// ([`op_results`]): a fetch completes when its last stripe does.
    pub fn into_ops(self, object_bytes: usize) -> Self {
        Self {
            flows: op_results(&self.flows, object_bytes),
            ..self
        }
    }

    /// Goodput in Gbit/s of a run that is one session (an incast
    /// exchange): its bytes over the time from the first flow's start
    /// to the last flow's finish.
    pub fn incast_goodput_gbps(&self) -> f64 {
        let bytes = self.flows.iter().map(|f| f.bytes).sum();
        match &op_results(&self.flows, bytes)[..] {
            [op] => op.goodput_gbps(),
            ops => panic!("an incast run is one session, not {}", ops.len()),
        }
    }
}

/// Execute a run: build the transport's simulator, install the
/// sessions, schedule the faults and notices, run to completion and
/// collect. The recording, when enabled, carries a `Timeout` anomaly
/// when a TCP sender timed out and a `StrandedSession` one when a
/// Polyraptor client lost a replica.
///
/// # Panics
/// When a session's receiver never completed, or a flow finished at or
/// before its own start — a transport bug, never a result.
pub fn run(run: Run) -> RunReport {
    let Run {
        topo,
        sessions,
        pattern,
        faults,
        reroute_delay_ns,
        notices,
        sim_seed,
        mut agent_seeds,
        transport,
    } = run;
    match transport {
        Transport::Rq(opts) => {
            let mut sim = opts.simulator(topo, sim_seed, &mut agent_seeds, reroute_delay_ns);
            let specs = build_rq_specs(&mut sim, &sessions, pattern);
            for spec in &specs {
                install_rq(&mut sim, spec);
            }
            let receivers = specs
                .iter()
                .flat_map(|s| s.receivers.iter().map(|_| s.id.0));
            execute(sim, &faults, &notices, receivers, |sim, report| {
                for (_, agent) in sim.agents() {
                    report.stranded_sessions += agent.stranded_sessions;
                    report.retargeted_sessions += agent.retargeted_sessions;
                    report.unstranded_sessions += agent.unstranded_sessions;
                    for rec in &agent.records {
                        report.retarget_symbols += rec.retarget_symbols;
                        report.flows.push(TransferResult {
                            session: rec.session.0,
                            bytes: rec.data_len,
                            start: rec.start,
                            finish: rec.finish,
                            background: rec.background,
                        });
                    }
                }
                gather_rq_spans(sim)
            })
        }
        Transport::Tcp(opts) => {
            let mut sim = opts.simulator(topo, sim_seed, reroute_delay_ns);
            let conns = build_tcp_conns(&sessions, pattern);
            for c in &conns {
                install_connection(&mut sim, c);
            }
            let receivers = conns.iter().map(|c| c.session);
            execute(sim, &faults, &notices, receivers, |sim, report| {
                for (_, agent) in sim.agents() {
                    report
                        .flows
                        .extend(agent.records.iter().map(|rec| TransferResult {
                            session: rec.session,
                            bytes: rec.bytes as usize,
                            start: rec.start,
                            finish: rec.finish,
                            background: rec.background,
                        }));
                }
                report.timeouts = conns
                    .iter()
                    .map(|c| sim.agent(c.sender).sender(c.id).map_or(0, |s| s.timeouts))
                    .sum();
                Vec::new()
            })
        }
    }
}

/// The transport-independent rest of [`run`], from an installed
/// simulator. `receivers` names the session of every flow that must
/// complete; `collect` fills the report's flows and transport counters
/// from the finished simulator and returns the agents' flow spans.
fn execute<P, A>(
    mut sim: Simulator<P, A, Option<Recorder>>,
    faults: &FaultPlan,
    notices: &[(NodeId, SimTime, u64)],
    receivers: impl Iterator<Item = u32>,
    collect: impl FnOnce(&Simulator<P, A, Option<Recorder>>, &mut RunReport) -> Vec<FlowSpanEvent>,
) -> RunReport
where
    P: SimPayload + Send,
    A: Agent<P> + Send,
{
    sim.schedule_faults(faults);
    for &(host, at, token) in notices {
        sim.schedule_timer(host, at, token);
    }
    sim.run_to_completion();
    let mut report = RunReport {
        fault_instants: faults.down_instants(),
        host_failures: faults.host_failures(sim.topology()).len(),
        ..RunReport::default()
    };
    let spans = collect(&sim, &mut report);
    if report.timeouts > 0 {
        // Work the fabric failed to carry: the annotations before it
        // are the lead-up.
        sim.note_anomaly(AnomalyKind::Timeout);
    }
    if report.stranded_sessions > 0 {
        // Survivable (that is the re-target claim), but still anomalous
        // fabric-level history worth a post-mortem.
        sim.note_anomaly(AnomalyKind::StrandedSession);
    }
    let mut missing: BTreeMap<u32, isize> = BTreeMap::new();
    for session in receivers {
        *missing.entry(session).or_default() += 1;
    }
    for f in &report.flows {
        assert!(
            f.finish > f.start,
            "session {} finished at {:?}, not after its start {:?}",
            f.session,
            f.finish,
            f.start
        );
        *missing.entry(f.session).or_default() -= 1;
    }
    for (session, n) in missing {
        assert_eq!(n, 0, "session {session} incomplete ({n} flows missing)");
    }
    report.flows.sort_by_key(|f| f.session);
    report.telemetry = take_run_telemetry(&mut sim, spans);
    report.fabric = sim.stats();
    report
}

// ---------------------------------------------------------------------------
// The benchmark's runners
// ---------------------------------------------------------------------------

/// [`StorageScenario::build`] under Polyraptor, run; per-flow results.
/// Kept only because `bench_e2e` calls it; ROADMAP item 12 deletes it.
pub fn run_storage_rq(
    scenario: &StorageScenario,
    fabric: &Fabric,
    opts: &RqRunOptions,
) -> Vec<TransferResult> {
    run(scenario.build(fabric, Transport::Rq(*opts))).flows
}

/// [`StorageScenario::build`] under TCP, run; per-flow results. Kept
/// only because `bench_e2e` calls it; ROADMAP item 12 deletes it.
pub fn run_storage_tcp(
    scenario: &StorageScenario,
    fabric: &Fabric,
    opts: &TcpRunOptions,
) -> Vec<TransferResult> {
    run(scenario.build(fabric, Transport::Tcp(*opts))).flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::IncastScenario;

    fn rq(sc: &StorageScenario) -> Vec<TransferResult> {
        run(sc.build(&Fabric::small(), Transport::Rq(RqRunOptions::default()))).flows
    }

    #[test]
    fn stripe_sums_and_balances() {
        for (bytes, n) in [(100u64, 3usize), (70 << 10, 7), (256 << 10, 64)] {
            let s = stripe(bytes, n);
            assert_eq!(s.iter().sum::<u64>(), bytes);
            let max = *s.iter().max().unwrap();
            let min = *s.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn small_write_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let results = rq(&sc);
        // One flow per replica receiver + one per background session.
        assert!(
            results.len() >= 30,
            "per-flow accounting yields >= one point per op"
        );
        for r in &results {
            assert!(r.finish > r.start);
            let g = r.goodput_gbps();
            assert!(g > 0.01 && g <= 1.0, "goodput {g} out of range");
        }
        // Op-level view covers every logical session exactly once.
        let ops = op_results(&results, sc.object_bytes);
        assert_eq!(ops.len(), 30);
    }

    #[test]
    fn small_read_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Read,
            seed: 8,
        };
        let results = rq(&sc);
        assert_eq!(results.len(), 30);
        assert!(foreground_goodputs(&results).iter().all(|&g| g > 0.0));
    }

    #[test]
    fn small_write_scenario_tcp_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let tcp = Transport::Tcp(TcpRunOptions::default());
        let results = run(sc.build(&Fabric::small(), tcp)).flows;
        assert!(results.len() >= 30);
        // Multi-unicast replication: 3 copies share the 1 Gbps uplink, so
        // no flow of a foreground op can beat ~1/3 Gbps by much.
        for r in results.iter().filter(|r| !r.background) {
            assert!(
                r.goodput_gbps() < 0.45,
                "3-replica TCP can't exceed uplink/3"
            );
        }
        assert_eq!(op_results(&results, sc.object_bytes).len(), 30);
    }

    #[test]
    fn tcp_segments_and_symbol_packets_are_the_same_size() {
        // The two transports' goodputs compare like for like only if a
        // full TCP segment and a full symbol packet cost the same wire
        // bytes.
        let segment = tcpsim::MSS as u32 + netsim::HEADER_BYTES;
        assert_eq!(
            segment,
            polyraptor::symbol_packet_bytes(polyraptor::SYMBOL_SIZE)
        );
        assert_eq!(segment, 1504);
    }

    #[test]
    #[should_panic(expected = "has a 10000000000 bps access link")]
    fn rq_runs_refuse_host_links_the_pacer_does_not_assume() {
        let fabric = Fabric::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
            oversub: 2.0,
            rate_bps: 10_000_000_000,
            prop_ns: 10_000,
        };
        let sc = StorageScenario::fig1a(4, 3, 1);
        run(sc.build(&fabric, Transport::Rq(RqRunOptions::default())));
    }

    #[test]
    fn incast_runners_produce_goodput() {
        let sc = IncastScenario {
            senders: 8,
            block_bytes: 256 << 10,
            seed: 3,
        };
        let goodput = |transport| run(sc.build(&Fabric::small(), transport)).incast_goodput_gbps();
        let g_rq = goodput(Transport::Rq(RqRunOptions::default()));
        let g_tcp = goodput(Transport::Tcp(TcpRunOptions::default()));
        assert!(g_rq > 0.0 && g_rq <= 1.0);
        assert!(g_tcp > 0.0 && g_tcp <= 1.0);
    }
}
